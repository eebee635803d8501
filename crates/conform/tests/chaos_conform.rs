//! Chaos × conformance: a slice of the corpus under seeded fault
//! schedules.
//!
//! Eight corpus scripts run under four seeded [`FaultPlan`]s, each armed
//! on a fresh engine of its own. The contract is the hardened-execution contract:
//! every query either returns rows **bit-identical** to the interpreter
//! oracle truth (computed before arming) or fails with a **typed**
//! runtime error — never a wrong answer, never a process abort.

use std::time::Duration;

use swole_conform::{corpus_files, fixture_db, parse_script, RecordKind};
use swole_plan::faults::FaultPlan;
use swole_plan::{interp, parse_sql, Engine, LogicalPlan, PlanError, QueryResult};

fn is_typed_runtime_error(err: &PlanError) -> bool {
    matches!(
        err,
        PlanError::ExecutionFailed(_)
            | PlanError::BudgetExceeded { .. }
            | PlanError::Stalled { .. }
            | PlanError::Shutdown { .. }
            | PlanError::DeadlineExceeded { .. }
            | PlanError::Cancelled { .. }
            | PlanError::Admission(_)
    )
}

/// The corpus slice under chaos: one script per operator family.
const CHAOS_FILES: [&str; 8] = [
    "agg_group_by.slt",
    "agg_scalar_basic.slt",
    "join_semijoin.slt",
    "join_groupjoin.slt",
    "window_row_number.slt",
    "window_sum_running.slt",
    "orderby_limit_topn.slt",
    "projection.slt",
];

const CHAOS_SEEDS: [u64; 4] = [3, 17, 101, 0x5eed];

/// Collect the executable query plans of the chosen scripts (statement
/// and expected-text records are covered by the main suite; chaos only
/// needs plans with a known truth).
fn chaos_plans() -> Vec<(String, LogicalPlan)> {
    let mut plans = Vec::new();
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !CHAOS_FILES.contains(&name.as_str()) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("corpus file reads");
        for (i, record) in parse_script(&text)
            .expect("corpus parses")
            .iter()
            .enumerate()
        {
            if let RecordKind::Query { sql, .. } = &record.kind {
                let parsed = parse_sql(sql).expect("corpus SQL parses");
                plans.push((format!("{name}#{i}"), parsed.plan));
            }
        }
    }
    assert_eq!(
        plans
            .iter()
            .map(|(n, _)| n.split('#').next().unwrap().to_string())
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        CHAOS_FILES.len(),
        "every chaos file must contribute at least one query"
    );
    plans
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS threads and measures wall-clock time")]
fn corpus_slice_under_chaos_is_bit_identical_or_typed() {
    let plans = chaos_plans();
    let db = fixture_db();
    let truths: Vec<QueryResult> = plans
        .iter()
        .map(|(name, p)| {
            interp::run(&db, p).unwrap_or_else(|e| panic!("oracle truth for {name}: {e}"))
        })
        .collect();
    drop(db);

    for &seed in &CHAOS_SEEDS {
        let schedule = FaultPlan::from_seed(seed);
        let tag = format!("seed={seed} events={:?}", schedule.events);
        let engine = Engine::builder(fixture_db())
            .threads(2)
            .global_memory_budget(64 << 20)
            .build();
        let guard = engine.inject_faults(schedule);
        for ((name, plan), truth) in plans.iter().zip(&truths) {
            match engine.query(plan) {
                Ok(got) => assert_eq!(
                    got.rows, truth.rows,
                    "{name}: wrong rows under chaos ({tag})"
                ),
                Err(err) => assert!(
                    is_typed_runtime_error(&err),
                    "{name}: untyped error {err:?} under chaos ({tag})"
                ),
            }
        }
        drop(guard);
        let report = engine.shutdown(Some(Duration::from_secs(10)));
        assert!(
            report.clean && report.aborted == 0,
            "shutdown not clean under {tag}: {report:?}"
        );
    }
}
