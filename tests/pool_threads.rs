//! No `swole-pool-*` OS thread outlives its engine.
//!
//! The check reads the kernel's per-task `comm` under `/proc/self/task`,
//! which lists the threads of every engine in the process. This binary
//! holds this one test, so no other test's engine is alive while it looks.

mod soak;

use soak::{groupby_plan, make_db, run_seeded_soak, MORSEL};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use swole::prelude::*;

/// Names of live `swole-pool-*` threads (Linux `/proc` scan; empty
/// elsewhere, degrading the assertions to no-ops).
fn live_pool_thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("swole-pool"))
        .collect()
}

/// [`live_pool_thread_names`] once `settled` holds, or after 10 s. `/proc`
/// lags both ends of a thread's life: the kernel names a task when it
/// first runs, and a joined task lingers until it is reaped.
fn pool_thread_names_when(settled: impl Fn(&[String]) -> bool) -> Vec<String> {
    let t0 = std::time::Instant::now();
    loop {
        let names = live_pool_thread_names();
        if settled(&names) || t0.elapsed() > Duration::from_secs(10) {
            return names;
        }
        std::thread::yield_now();
    }
}

/// No `swole-pool-*` thread is left once every engine is gone.
fn assert_no_pool_threads(after: &str) {
    assert_eq!(
        pool_thread_names_when(|names| names.is_empty()),
        Vec::<String>::new(),
        "{after}: every swole-pool-* thread must be joined"
    );
}

/// Dropping the last handle joins every pool worker, whether the builder
/// asked for threads or, by the older name, for a worker pool; so does a
/// graceful shutdown while clients hammer the engine, and so does every
/// cell of the seeded chaos soak.
#[test]
#[cfg_attr(miri, ignore = "relies on wall-clock progress timing")]
fn no_pool_thread_outlives_its_engine() {
    let four: [fn(EngineBuilder) -> EngineBuilder; 2] = [|b| b.threads(4), |b| b.worker_pool(4)];
    for (i, configure) in four.into_iter().enumerate() {
        let e = configure(Engine::builder(make_db(512)))
            .tile_rows(MORSEL)
            .admission(AdmissionConfig::new(2))
            .build();
        assert_eq!(e.live_pool_workers(), 4, "builder #{i}");
        let plan = groupby_plan();
        e.query(&plan).expect("warm the pool");
        // The submitting thread may have finished the warm query before any
        // worker was first scheduled, so wait for a name to show.
        assert!(
            !pool_thread_names_when(|names| !names.is_empty()).is_empty(),
            "builder #{i}: pool threads visible while the engine lives"
        );
        // Dropping the last handle must run the drain tail: admission
        // closes and every pool worker is joined — no detached threads left
        // behind.
        let clone = e.clone();
        drop(e);
        assert_eq!(
            clone.live_pool_workers(),
            4,
            "builder #{i}: a surviving clone keeps the pool alive"
        );
        drop(clone);
        assert_no_pool_threads(&format!("builder #{i}: drop"));
    }

    // A graceful drain with statements in flight: clients hammer the
    // engine until shutdown turns them away.
    const CLIENTS: usize = 8;
    let e = Engine::builder(make_db(512))
        .threads(4)
        .tile_rows(MORSEL)
        .admission(AdmissionConfig::new(2))
        .global_memory_budget(64 << 20)
        .build();
    let ok_runs = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let e = e.clone();
            let ok_runs = ok_runs.clone();
            std::thread::spawn(move || {
                while e.query(&groupby_plan()).is_ok() {
                    ok_runs.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    while ok_runs.load(Ordering::Relaxed) < CLIENTS {
        std::thread::yield_now();
    }
    let report = e.shutdown(Some(Duration::from_secs(30)));
    assert!(report.clean, "{report:?}");
    for client in clients {
        client.join().expect("client thread");
    }
    drop(e);
    assert_no_pool_threads("a drain under 8 hammering clients");

    run_seeded_soak();
    assert_no_pool_threads("the seeded chaos soak");
}
