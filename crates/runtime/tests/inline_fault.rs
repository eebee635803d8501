//! The fault hook on the inline path. Armed faults are process-global and
//! one-shot, and every stage has a morsel 0, so this test has a process to
//! itself instead of sitting among the `pool.rs` unit tests.

use std::sync::Arc;

use swole_kernels::TILE;
use swole_runtime::{faults, ExecCtx, Executor, RuntimeError};

#[test]
fn injected_panic_at_morsel_zero_fires_on_an_inline_stage() {
    let execs = [("inline", Executor::Inline), ("pool-3", Executor::pool(3))];
    for (name, exec) in execs {
        let workers = exec.live_workers();
        let run = |rows| {
            let ctx = Arc::new(ExecCtx::unbounded());
            let out = exec.run_morsels(&ctx, rows, TILE, || 0usize, |acc, _, len| *acc += len);
            (out.map(|p| p.into_iter().sum::<usize>()), ctx.tripped())
        };
        let guard = faults::inject_panic_at_morsel(0);
        match run(TILE) {
            (Err(RuntimeError::Panic(msg)), true) => {
                assert!(msg.contains("injected fault"), "exec={name}: {msg}")
            }
            other => panic!("exec={name}: the armed fault did not fire: {other:?}"),
        }
        drop(guard);
        // One-shot, and contained: the same executor runs the next stages.
        assert_eq!(run(TILE), (Ok(TILE), false), "exec={name}");
        assert_eq!(run(8 * TILE), (Ok(8 * TILE), false), "exec={name}");
        assert_eq!(exec.live_workers(), workers, "exec={name}");
    }
}
