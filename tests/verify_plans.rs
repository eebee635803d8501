//! Static plan verification, end to end through the engine.
//!
//! Property: every plan the access-aware planner composes — over randomized
//! schemas, predicates, aggregate lists, thread counts, and pinned
//! strategies — passes `VerifyLevel::Full` verification. The verifier's
//! negative space (ill-formed programs rejected with typed errors) is
//! covered by hand-built programs in `swole-verify`'s unit tests; here the
//! engine-facing wiring is exercised: the `EngineBuilder::verify` level,
//! verdict caching alongside the plan cache, the `EXPLAIN VERIFY` SQL
//! prefix, and the injected resource-accounting fault — a
//! `FaultPlan::uncharged_alloc` armed on the test's own engine, so these
//! tests run in parallel.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swole::plan::faults::FaultPlan;
use swole::plan::{parse_sql, ExplainMode, VerifyErrorKind, VerifyLevel};
use swole::prelude::*;

const CASES: u64 = 48;

/// Random database: R(x, a, b, c, fk) and S(y), sizes and domains drawn
/// from the seeded generator.
fn random_db(rng: &mut SmallRng) -> Database {
    let n_r = rng.gen_range(1usize..3000);
    let n_s = rng.gen_range(1usize..200);
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
                ColumnData::I16((0..n_r).map(|_| rng.gen_range(0i16..24)).collect()),
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

fn random_pred(rng: &mut SmallRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.4) {
        let col = ["x", "a", "c"][rng.gen_range(0usize..3)];
        let op = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ][rng.gen_range(0usize..6)];
        let lit = rng.gen_range(i8::MIN..=i8::MAX) as i64;
        return Expr::col(col).cmp(op, Expr::lit(lit));
    }
    match rng.gen_range(0u32..3) {
        0 => random_pred(rng, depth - 1).and(random_pred(rng, depth - 1)),
        1 => random_pred(rng, depth - 1).or(random_pred(rng, depth - 1)),
        _ => Expr::Not(Box::new(random_pred(rng, depth - 1))),
    }
}

fn random_aggs(rng: &mut SmallRng) -> Vec<AggSpec> {
    (0..rng.gen_range(1usize..4))
        .map(|i| {
            let expr = match rng.gen_range(0usize..3) {
                0 => Expr::col("a"),
                1 => Expr::col("a").mul(Expr::col("b")),
                _ => Expr::Add(Box::new(Expr::col("a")), Box::new(Expr::col("c"))),
            };
            let name = format!("v{i}");
            match rng.gen_range(0usize..4) {
                0 => AggSpec::sum(expr, name.as_str()),
                1 => AggSpec::count(name.as_str()),
                2 => AggSpec::min(expr, name.as_str()),
                _ => AggSpec::max(expr, name.as_str()),
            }
        })
        .collect()
}

/// A random supported-shape logical plan over the generated schema.
fn random_plan(rng: &mut SmallRng) -> LogicalPlan {
    match rng.gen_range(0u32..3) {
        // scan → filter? → (scalar | group-by) aggregation
        0 => {
            let mut b = QueryBuilder::scan("R");
            if rng.gen_bool(0.7) {
                b = b.filter(random_pred(rng, 2));
            }
            let group = rng.gen_bool(0.5);
            b.aggregate(if group { Some("c") } else { None }, random_aggs(rng))
        }
        // FK semijoin → scalar aggregation
        1 => {
            let mut b = QueryBuilder::scan("R");
            if rng.gen_bool(0.6) {
                let cut = rng.gen_range(0i8..100);
                b = b.filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(cut as i64)));
            }
            let cut = rng.gen_range(0i8..100);
            b.semijoin(
                QueryBuilder::scan("S")
                    .filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(cut as i64))),
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
        // FK groupjoin
        _ => {
            let cut = rng.gen_range(0i8..100);
            QueryBuilder::scan("R")
                .semijoin(
                    QueryBuilder::scan("S")
                        .filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(cut as i64))),
                    "fk",
                )
                .aggregate(Some("fk"), vec![AggSpec::sum(Expr::col("a"), "s")])
        }
    }
}

/// Every plan the planner composes for a randomized query passes a full
/// verification pass — at every thread count the corpus script also uses.
#[test]
fn randomized_planner_output_passes_full_verification() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0000 + seed);
        let _schema_draw = random_db(&mut rng); // advance the stream
        let plan = random_plan(&mut rng);
        for threads in [1usize, 2, 8] {
            // Re-derive the same database per session (Database is not
            // Clone; the generator is deterministic in the seed).
            let db = random_db(&mut SmallRng::seed_from_u64(0x5EED_0000 + seed));
            let engine = Engine::builder(db).threads(threads).build();
            let report = engine
                .verify_plan(&plan)
                .unwrap_or_else(|e| panic!("seed={seed} threads={threads}: {e}"));
            assert_eq!(report.level, VerifyLevel::Full, "seed={seed}");
            assert!(report.ops >= 1, "seed={seed}");
        }
    }
}

/// R → S → T: `R.fk` into S and, a chain, `S.tfk` into T.
fn chain_db() -> Database {
    let n = 3000;
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "x",
                ColumnData::I8((0..n).map(|i| (i % 100) as i8).collect()),
            )
            .with_column("a", ColumnData::I32((0..n).map(|i| i % 50).collect()))
            .with_column(
                "fk",
                ColumnData::U32((0..n).map(|i| (i % 64) as u32).collect()),
            ),
    );
    db.add_table(
        Table::new("S")
            .with_column(
                "y",
                ColumnData::I8((0..64).map(|i| (i * 3 % 100) as i8).collect()),
            )
            .with_column("tfk", ColumnData::U32((0..64).map(|i| i % 16).collect())),
    );
    db.add_table(Table::new("T").with_column(
        "z",
        ColumnData::I8((0..16).map(|i| (i * 7 % 100) as i8).collect()),
    ));
    db.add_fk("R", "fk", "S").expect("valid by construction");
    db.add_fk("S", "tfk", "T").expect("valid by construction");
    db
}

/// Under `pins`, `plan` runs the instance its `strategy:` line names with
/// `runs` (and its shape names with `shape`), and verifies at `Full` with
/// pass 3 checking every operator: each one commits a strategy, so each
/// one's dispatched loop is checked against the strategy priced.
///
/// `EXPLAIN CODE` must then show the access pattern of the stage's run
/// signature: the aggregating stage's loop by its `lanes`, and each edge's
/// structure — a bitmap probed by `bitmap_get`, a key set filled by
/// `ht_insert` and probed by `ht_find`.
fn verifies_running(
    db: Database,
    pins: StrategyOverrides,
    plan: &LogicalPlan,
    (runs, shape): (&str, &str),
    lanes: Lanes,
) -> VerifyReport {
    let engine = Engine::builder(db).strategies(pins).build();
    let explain = engine.explain(plan).expect("plans");
    assert!(explain.strategy.contains(runs), "{runs}: runs {explain}");
    assert!(explain.shape.contains(shape), "{runs}: shape {explain}");
    let report = engine
        .verify_plan(plan)
        .unwrap_or_else(|e| panic!("{runs}: {e}"));
    assert_eq!(report.level, VerifyLevel::Full, "{runs}");
    assert_eq!(report.signatures, report.ops, "{runs}: {:?}", report.lines);

    let code = engine.explain_code(plan).expect("renders").code;
    let text = code.join("\n");
    let at = code
        .iter()
        .position(|l| l.contains("agg("))
        .expect("a stage");
    let stage = code[at..].join("\n");
    let masked = stage.contains("* cmp[j]") || stage.contains("* (cmp[j] & bitmap_get(");
    let (gather, post_merge) = (stage.contains("[i+idx[j]]"), stage.contains("ht_delete("));
    let seen = (gather, masked, stage.contains("NULL_KEY"), post_merge);
    let expected = match lanes {
        Lanes::Selected => (true, false, false, false),
        Lanes::Masked => (false, true, false, false),
        // The key is routed, the value not masked.
        Lanes::KeyMasked => (false, false, true, false),
        Lanes::Every => (false, false, false, true),
    };
    assert_eq!(seen, expected, "{runs}: {lanes:?} lanes as\n{text}");
    assert_eq!(stage.contains("idx"), gather, "{runs}:\n{text}");
    if shape.contains("[positional-bitmap]") {
        assert!(text.contains("bitmap_get("), "{runs}: membership\n{text}");
    }
    if shape.contains("[hash]") {
        let hashed = text.contains("ht_insert(") && text.contains("ht_find(");
        assert!(hashed, "{runs}: key set\n{text}");
    }
    report
}

/// The lanes of an aggregating stage, as its run signature names them.
#[derive(Debug, Clone, Copy)]
enum Lanes {
    Selected,
    Masked,
    KeyMasked,
    Every,
}

/// Pinned strategies cover every access-signature row the verifier models;
/// all of them must verify on all shapes they apply to, each running the
/// instance it names.
#[test]
fn every_pinned_strategy_verifies() {
    let mk_db = || {
        let mut rng = SmallRng::seed_from_u64(77);
        random_db(&mut rng)
    };
    let lt = |c: &str, v: i64| Expr::col(c).cmp(CmpOp::Lt, Expr::lit(v));
    let sum_a = || vec![AggSpec::sum(Expr::col("a"), "s")];
    let scalar = QueryBuilder::scan("R")
        .filter(lt("x", 50))
        .aggregate(None, sum_a());
    let grouped = QueryBuilder::scan("R")
        .filter(lt("x", 50))
        .aggregate(Some("c"), sum_a());
    // Scalar key masking has no key to mask: it runs the hybrid's selected
    // lanes, which only pass 3 tells from the masked ones.
    for (strategy, scalar_runs, grouped_runs, (scalar_lanes, grouped_lanes)) in [
        (
            AggStrategy::Hybrid,
            "hybrid",
            "hybrid, sink: groupby_gather<",
            (Lanes::Selected, Lanes::Selected),
        ),
        (
            AggStrategy::ValueMasking,
            "value-masking",
            "value-masking, sink: groupby_value_masked<",
            (Lanes::Masked, Lanes::Masked),
        ),
        (
            AggStrategy::KeyMasking,
            "key-masking",
            "key-masking, sink: groupby_key_masked<",
            (Lanes::Selected, Lanes::KeyMasked),
        ),
    ] {
        let pins = || StrategyOverrides::pin_agg(strategy);
        let runs = (scalar_runs, "Scan R");
        verifies_running(mk_db(), pins(), &scalar, runs, scalar_lanes);
        let runs = (grouped_runs, "group by c");
        verifies_running(mk_db(), pins(), &grouped, runs, grouped_lanes);
    }

    // The fact filter decides the probe over a bitmap: the masked probe
    // (σ 0.5) or the selection-vector probe (σ 0.05); a key set is always
    // probed through the selection vector.
    let semijoin = |cut| {
        QueryBuilder::scan("R")
            .filter(lt("x", cut))
            .semijoin(QueryBuilder::scan("S").filter(lt("y", 50)), "fk")
            .aggregate(None, sum_a())
    };
    for strategy in [
        SemiJoinStrategy::Hash,
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector),
    ] {
        let pins = || StrategyOverrides::pin_semijoin(strategy);
        let edge = format!("S[{}]", strategy.name());
        let masked = match strategy {
            SemiJoinStrategy::Hash => ("multi-join (1 edges, order: dp)", Lanes::Selected),
            SemiJoinStrategy::PositionalBitmap(_) => {
                ("masked probe, sink: fold_masked_bitmap<1>", Lanes::Masked)
            }
        };
        let runs = (masked.0, edge.as_str());
        verifies_running(mk_db(), pins(), &semijoin(50), runs, masked.1);
        let runs = ("multi-join (1 edges, order: dp)", edge.as_str());
        verifies_running(mk_db(), pins(), &semijoin(5), runs, Lanes::Selected);

        // A chain edge builds the packed bitmap its child's build ANDs in,
        // whatever the pin.
        let chain = QueryBuilder::scan("R")
            .filter(lt("x", 50))
            .semijoin(
                QueryBuilder::scan("S")
                    .filter(lt("y", 50))
                    .semijoin(QueryBuilder::scan("T").filter(lt("z", 50)), "tfk"),
                "fk",
            )
            .aggregate(None, sum_a());
        let shape = format!("{edge}(tfk -> T[positional-bitmap])");
        let runs = ("multi-join (2 edges", shape.as_str());
        verifies_running(chain_db(), pins(), &chain, runs, Lanes::Selected);
    }

    let groupjoin = QueryBuilder::scan("R")
        .semijoin(QueryBuilder::scan("S").filter(lt("y", 50)), "fk")
        .aggregate(Some("fk"), sum_a());
    for (strategy, runs, lanes) in [
        (
            GroupJoinStrategy::GroupJoin,
            "groupjoin, sink: groupby_gather<",
            Lanes::Selected,
        ),
        (
            GroupJoinStrategy::EagerAggregation,
            "eager-aggregation, sink: eager_aggregate<",
            Lanes::Every,
        ),
    ] {
        let pins = StrategyOverrides::pin_groupjoin(strategy);
        verifies_running(mk_db(), pins, &groupjoin, (runs, "group by fk"), lanes);
    }
    // A probe-side filter and min/max force the groupjoin strategy: the
    // grouped probe then carries a predicate and a tile selection vector.
    let forced = QueryBuilder::scan("R")
        .filter(lt("x", 50))
        .semijoin(QueryBuilder::scan("S").filter(lt("y", 50)), "fk")
        .aggregate(Some("fk"), vec![AggSpec::max(Expr::col("a"), "hi")]);
    let runs = ("groupjoin, sink: groupby_gather<fold 1>", "group by fk");
    let pins = StrategyOverrides::default();
    let report = verifies_running(mk_db(), pins, &forced, runs, Lanes::Selected);
    assert_eq!(report.ops, 2, "one edge build, one grouped probe");
}

/// `EXPLAIN VERIFY` routes through the parser into
/// [`Engine::explain_verify`] and renders one line per pass.
#[test]
fn explain_verify_renders_pass_lines() {
    let mut rng = SmallRng::seed_from_u64(11);
    let db = random_db(&mut rng);
    let engine = Engine::builder(db).threads(2).build();
    let parsed =
        parse_sql("explain verify select sum(a * b) as s from R where x < 60").expect("parses");
    assert_eq!(parsed.explain, Some(ExplainMode::Verify));
    let ex = engine.explain_verify(&parsed.plan).expect("verifies");
    assert!(
        ex.verification.len() > 4,
        "pass lines plus certificate lines: {ex}"
    );
    let text = ex.to_string();
    for pass in 1..=4 {
        assert!(
            text.contains(&format!("verify: pass {pass}")),
            "missing pass {pass} in:\n{text}"
        );
    }
    // The admission certificate renders after the pass verdicts: the peak
    // bound summary and per-operator bounds.
    assert!(
        text.contains("bounds: peak <="),
        "missing certificate summary in:\n{text}"
    );
    assert!(
        text.contains("bounds[/"),
        "missing per-operator bounds in:\n{text}"
    );
    // Plain EXPLAIN stays untouched (golden tests depend on it).
    let plain = engine.explain(&parsed.plan).expect("explains");
    assert!(plain.verification.is_empty());
    assert!(!plain.to_string().contains("verify:"));
}

/// An allocation site that skips its memory charge is a plan-time error
/// under `VerifyLevel::Full` — the query never starts executing.
#[test]
fn uncharged_allocation_is_rejected_at_plan_time() {
    let mut rng = SmallRng::seed_from_u64(21);
    let engine = Engine::builder(random_db(&mut rng))
        .verify(VerifyLevel::Full)
        .build();
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(50)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
    let _fault = engine.inject_faults(FaultPlan::uncharged_alloc());
    let err = engine.query(&plan).expect_err("must fail verification");
    match err {
        PlanError::Verification(v) => {
            assert!(
                matches!(v.kind, VerifyErrorKind::UnchargedAllocation { .. }),
                "wrong kind: {v}"
            );
            assert!(!v.path.is_empty(), "provenance path missing: {v}");
        }
        other => panic!("expected Verification error, got: {other}"),
    }
}

/// Verification verdicts are cached with the plan: a repeat of a verified
/// query must not re-lower (the still-armed fault would fail it if it did).
#[test]
fn cached_verdict_is_not_reverified() {
    let mut rng = SmallRng::seed_from_u64(22);
    let engine = Engine::builder(random_db(&mut rng))
        .verify(VerifyLevel::Full)
        .build();
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(50)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
    let first = engine.query(&plan).expect("clean first run verifies");
    let _fault = engine.inject_faults(FaultPlan::uncharged_alloc());
    let second = engine
        .query(&plan)
        .expect("cache hit reuses the cached verdict without re-lowering");
    assert_eq!(first, second);
    // A session that has to re-verify (fresh cache) consumes the fault.
    let mut rng = SmallRng::seed_from_u64(22);
    let fresh = Engine::builder(random_db(&mut rng))
        .verify(VerifyLevel::Full)
        .build();
    let _fresh_fault = fresh.inject_faults(FaultPlan::uncharged_alloc());
    assert!(matches!(
        fresh.query(&plan),
        Err(PlanError::Verification(_))
    ));
}

/// `VerifyLevel::Off` sessions never lower plans for verification at all:
/// an armed fault is simply never consulted.
#[test]
fn off_level_never_lowers() {
    let mut rng = SmallRng::seed_from_u64(23);
    let engine = Engine::builder(random_db(&mut rng))
        .verify(VerifyLevel::Off)
        .build();
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(50)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
    let _fault = engine.inject_faults(FaultPlan::uncharged_alloc());
    engine.query(&plan).expect("Off-level session executes");
    // The explicit verify_plan API still verifies at Full on demand (and
    // consumes the armed fault).
    assert!(matches!(
        engine.verify_plan(&plan),
        Err(PlanError::Verification(_))
    ));
}

/// Raising the session level re-verifies a plan cached at a lower level
/// (the verdict ratchets upward, it never silently downgrades).
#[test]
fn stricter_session_reverifies_cached_plan() {
    let mut rng = SmallRng::seed_from_u64(24);
    let db = random_db(&mut rng);
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(50)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
    // Structural-level run caches the plan with a Structural verdict.
    let engine = Engine::builder(db).verify(VerifyLevel::Structural).build();
    engine.query(&plan).expect("structural run");
    // The fault only trips pass 4 (Full); the Structural verdict means a
    // Full-level clone must re-lower and hit it.
    let _fault = engine.inject_faults(FaultPlan::uncharged_alloc());
    engine
        .query(&plan)
        .expect("repeat at Structural: cached verdict");
    // Still armed. A stricter query path would now fail — exercised through
    // verify_plan, which always runs Full.
    assert!(matches!(
        engine.verify_plan(&plan),
        Err(PlanError::Verification(_))
    ));
}
