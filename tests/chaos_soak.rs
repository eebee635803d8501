//! Chaos soak: seeded fault schedules against every executor shape.
//!
//! Each soak iteration arms a seeded [`FaultPlan`] — an LCG-derived
//! sequence of worker panics, allocation failures, admission stalls, and
//! clock-skew jumps — on a fresh engine and runs the standard workload at {1, 2, 8} threads: inline at
//! one, on the engine's worker pool above. The contract under chaos is the
//! hardened-execution contract:
//!
//! 1. every query either returns rows **bit-identical** to the interpreter
//!    ground truth or a **typed** runtime error — never a wrong answer,
//!    never a process abort;
//! 2. nothing leaks: after the plan's guard drops, admission shows zero
//!    running/queued, the global memory pool shows zero bytes charged and
//!    zero registered queries, and shutdown joins every pool worker
//!    (`tests/pool_threads.rs` checks the OS threads themselves);
//! 3. a failing run is replayable from its printed seed alone (asserted
//!    directly for the single-threaded executor, where even the error
//!    text must be identical across replays).
//!
//! A plan fires only on the engine it is armed on, so these tests run in
//! parallel.

mod soak;

use soak::*;
use std::time::Duration;
use swole::plan::faults::FaultPlan;
use swole::plan::interp;
use swole::prelude::*;

#[test]
#[cfg_attr(miri, ignore = "spawns OS threads and measures wall-clock time")]
fn seeded_chaos_schedules_never_corrupt_or_leak() {
    run_seeded_soak();
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS threads and measures wall-clock time")]
fn chaos_replay_single_thread_is_bit_identical() {
    let plans = [groupby_plan(), scalar_plan(), semijoin_plan()];

    // Single-threaded execution makes the whole fault interleaving
    // deterministic: morsel claim order, process-wide charge order, and
    // skew trigger points are all fixed, so a replay must reproduce not
    // just the Ok/Err outcome but the exact rows and exact error text.
    // No stall window here: whether a near-window cumulative skew trips
    // the watchdog would depend on real elapsed milliseconds, which is
    // the one thing a replay cannot reproduce.
    let run_once = |seed: u64| -> Vec<String> {
        let e = Engine::builder(make_db(512))
            .tile_rows(MORSEL)
            .threads(1)
            .admission(AdmissionConfig::new(2))
            .global_memory_budget(64 << 20)
            .build();
        let guard = e.inject_faults(FaultPlan::from_seed(seed));
        let outcomes = plans
            .iter()
            .map(|plan| match e.query(plan) {
                Ok(got) => format!("ok: {:?}", got.rows),
                Err(err) => format!("err: {err}"),
            })
            .collect();
        drop(guard);
        e.shutdown(Some(Duration::from_secs(10)));
        outcomes
    };

    for seed in [3u64, 7, 11, 23, 31] {
        assert_eq!(
            FaultPlan::from_seed(seed).events,
            FaultPlan::from_seed(seed).events,
            "seed derivation must be pure"
        );
        let first = run_once(seed);
        let replay = run_once(seed);
        assert_eq!(first, replay, "seed={seed} replay diverged");
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS threads and measures wall-clock time")]
fn dropped_schedule_leaves_engine_pristine() {
    let plan = groupby_plan();
    let e = soak_engine(4);
    let truth = interp::run(&e.database(), &plan).expect("interpreter ground truth");

    // Arm a seeded plan, let it wreak havoc, drop it mid-flight of nothing:
    // the very next query must run clean and bit-identical.
    let guard = e.inject_faults(FaultPlan::from_seed(0xdead_beef));
    let _ = e.query(&plan);
    drop(guard);
    let got = e.query(&plan).expect("clean run after guard drop");
    assert_eq!(got.rows, truth.rows);
    let report = e.shutdown(None);
    assert!(report.clean, "unbounded drain always joins: {report:?}");
}
