//! Per-query execution context: cancellation, deadlines, budgets,
//! progress.
//!
//! One [`ExecCtx`] is created per query and shared (via `Arc`) with every
//! morsel worker. Workers consult it at morsel boundaries (cooperative
//! cancellation — there is no preemption) and charge its gauge before
//! materializing temporaries (masks, bitmaps, hash tables, per-worker
//! scratch). All counters are relaxed atomics; the context adds no
//! synchronization to the tile loops themselves.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::admission::Priority;
use crate::error::RuntimeError;
use crate::faults::{ArmedPlan, FaultEvent};
use crate::gauge::MemGauge;

/// Shared cancellation flag behind [`ExecHandle`]. One `CancelState` scopes
/// cancellation: every query started under the same state observes the
/// same flag, and queries under a different state are untouched.
#[derive(Debug, Default)]
pub struct CancelState {
    cancelled: AtomicBool,
}

/// Cancellation token for an engine session.
///
/// Cloneable and sendable, so it can cancel a query running on another
/// thread. Cancellation is cooperative: workers observe it at their next
/// morsel boundary and the query returns [`RuntimeError::Cancelled`] with
/// partial-progress counts.
///
/// The flag is **sticky per scope**: once cancelled, every current *and
/// future* query under the same scope (engine or session) fails until
/// [`ExecHandle::reset`] clears it. It never leaks across scopes — each
/// session carries its own `CancelState`, so cancelling one session does
/// not affect queries admitted on the engine or on other sessions.
#[derive(Debug, Clone)]
pub struct ExecHandle {
    state: Arc<CancelState>,
}

impl ExecHandle {
    /// Wrap a cancel scope in a handle.
    pub fn new(state: Arc<CancelState>) -> ExecHandle {
        ExecHandle { state }
    }

    /// Request cancellation of the scope's in-flight (and future) queries.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::SeqCst);
    }

    /// `true` once [`ExecHandle::cancel`] has been called (and not reset).
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::SeqCst)
    }

    /// Clear the cancellation flag so the scope accepts queries again.
    pub fn reset(&self) {
        self.state.cancelled.store(false, Ordering::SeqCst);
    }
}

/// Per-query execution context: cancellation, deadline, memory limit,
/// progress.
pub struct ExecCtx {
    cancel: Arc<CancelState>,
    /// Absolute deadline on the (possibly fault-skewed) deadline clock.
    deadline: Option<Instant>,
    /// The fault plan armed on the engine when the query was admitted, if
    /// any; the gauge holds the same state.
    faults: Option<Arc<ArmedPlan>>,
    /// The query's memory gauge.
    pub gauge: MemGauge,
    priority: Priority,
    /// Set when any worker panics; siblings exit at their next boundary.
    tripped: AtomicBool,
    /// Set by [`ExecCtx::abort`] when engine shutdown hard-aborts the
    /// query; observed at the next morsel boundary as
    /// [`RuntimeError::Shutdown`].
    aborted: AtomicBool,
    morsels_done: AtomicUsize,
    morsels_total: AtomicUsize,
    /// Watchdog window: if no morsel completes for this long, the next
    /// cooperative check fails with [`RuntimeError::Stalled`]. `None`
    /// disables the watchdog (the default).
    stall_window: Option<Duration>,
    /// When the context was created, on wall time; the heartbeat below is
    /// measured from here.
    started: Instant,
    /// Watchdog heartbeat: milliseconds of wall time from `started` at
    /// which the last morsel completed.
    last_progress_ms: AtomicU64,
}

impl ExecCtx {
    /// A context for one query. `deadline` is absolute; compute it from
    /// the query's timeout *before* admission so time spent queued counts
    /// against it. `limit` bounds what the gauge may charge.
    pub fn new(
        cancel: Arc<CancelState>,
        deadline: Option<Instant>,
        limit: Option<usize>,
        priority: Priority,
    ) -> ExecCtx {
        ExecCtx {
            cancel,
            deadline,
            faults: None,
            gauge: MemGauge::new(limit),
            priority,
            tripped: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            morsels_done: AtomicUsize::new(0),
            morsels_total: AtomicUsize::new(0),
            stall_window: None,
            started: Instant::now(),
            last_progress_ms: AtomicU64::new(0),
        }
    }

    /// Arm the per-query watchdog: if no morsel completes within `window`,
    /// the next cooperative check fails with [`RuntimeError::Stalled`].
    /// The check reads the fault-skewable deadline clock (see
    /// [`ExecCtx::morsel_done`]), so injected clock skew exercises the
    /// watchdog deterministically at any thread count. Call before
    /// sharing the context (typically right after [`ExecCtx::new`]).
    pub fn with_stall_window(mut self, window: Option<Duration>) -> ExecCtx {
        self.stall_window = window;
        self
    }

    /// Run the query under an armed fault plan's state (`None`: nothing
    /// armed). Call before sharing the context, like
    /// [`ExecCtx::with_stall_window`].
    pub fn with_faults(mut self, faults: Option<Arc<ArmedPlan>>) -> ExecCtx {
        self.gauge.faults.clone_from(&faults);
        self.faults = faults;
        self
    }

    /// The deadline clock: wall time plus any skew the armed plan applied.
    pub fn now(&self) -> Instant {
        self.faults
            .as_deref()
            .map_or_else(Instant::now, ArmedPlan::now)
    }

    /// The fault hook at a claimed morsel: panic if the armed plan says so,
    /// or hold the claiming worker until its query stops and fail the
    /// morsel with that typed error (a hold nothing ends in 10 s panics).
    pub(crate) fn fault_at_morsel(&self, index: usize) -> Result<(), RuntimeError> {
        match self
            .faults
            .as_ref()
            .and_then(|f| f.take_morsel_fault(index))
        {
            None => Ok(()),
            Some(FaultEvent::WorkerPanic { .. }) => {
                panic!("injected fault: worker panic at morsel {index}")
            }
            Some(_) => {
                let held = Instant::now();
                while self.check().is_ok() && !self.tripped() {
                    assert!(
                        held.elapsed() < Duration::from_secs(10),
                        "injected fault: hold never released"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                self.check().and(Err(RuntimeError::Stopped))
            }
        }
    }

    /// A context with no handle, deadline, or memory limit (tests,
    /// benches).
    pub fn unbounded() -> ExecCtx {
        ExecCtx::new(
            Arc::new(CancelState::default()),
            None,
            None,
            Priority::Normal,
        )
    }

    /// The cooperative check run at every morsel boundary (and once before
    /// dispatch, so zero-morsel inputs still observe a 0ms deadline).
    /// Precedence when several stop conditions hold at once: shutdown
    /// abort, then cancellation, then a watchdog stall, then deadline
    /// expiry — most-specific first.
    pub fn check(&self) -> Result<(), RuntimeError> {
        if self.aborted.load(Ordering::Relaxed) {
            return Err(RuntimeError::Shutdown {
                morsels_done: self.morsels_done.load(Ordering::Relaxed),
                morsels_total: self.morsels_total.load(Ordering::Relaxed),
            });
        }
        if self.cancel.cancelled.load(Ordering::Relaxed) {
            return Err(RuntimeError::Cancelled {
                morsels_done: self.morsels_done.load(Ordering::Relaxed),
                morsels_total: self.morsels_total.load(Ordering::Relaxed),
            });
        }
        if let Some(window) = self.stall_window {
            let elapsed = self.now().saturating_duration_since(self.started);
            let last = self.last_progress_ms.load(Ordering::Relaxed);
            let idle_ms = (elapsed.as_millis() as u64).saturating_sub(last);
            if idle_ms > window.as_millis() as u64 {
                return Err(RuntimeError::Stalled {
                    morsels_done: self.morsels_done.load(Ordering::Relaxed),
                    morsels_total: self.morsels_total.load(Ordering::Relaxed),
                    window_ms: window.as_millis() as u64,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if self.now() >= deadline {
                return Err(RuntimeError::DeadlineExceeded {
                    morsels_done: self.morsels_done.load(Ordering::Relaxed),
                    morsels_total: self.morsels_total.load(Ordering::Relaxed),
                });
            }
        }
        Ok(())
    }

    /// Mark the context failed so sibling workers stop claiming morsels.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::SeqCst);
    }

    /// `true` once a worker (or an earlier phase) has failed.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// Hard-abort the query for engine shutdown: every worker observes
    /// [`RuntimeError::Shutdown`] at its next morsel boundary. Unlike
    /// [`ExecHandle::cancel`] this is per-query, not per-scope, and cannot
    /// be reset.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
    }

    /// Record one fully processed morsel. This is the watchdog heartbeat:
    /// the stall clock restarts from here. The heartbeat is wall time and
    /// the check reads the deadline clock, so an injected skew counts as
    /// time in which no morsel completed: a skew past the window stalls
    /// the query at the next check, whichever worker completes a morsel
    /// first — deterministic at any thread count.
    pub fn morsel_done(&self) {
        self.morsels_done.fetch_add(1, Ordering::Relaxed);
        if self.stall_window.is_some() {
            let elapsed = self.started.elapsed().as_millis() as u64;
            self.last_progress_ms.fetch_max(elapsed, Ordering::Relaxed);
        }
        if let Some(faults) = &self.faults {
            faults.morsel_done();
        }
    }

    /// Add `n` morsels to the scheduled total (once per stage).
    pub fn add_morsels_total(&self, n: usize) {
        self.morsels_total.fetch_add(n, Ordering::Relaxed);
    }

    /// `(morsels_done, morsels_total)` for progress reporting.
    pub fn progress(&self) -> (usize, usize) {
        (
            self.morsels_done.load(Ordering::Relaxed),
            self.morsels_total.load(Ordering::Relaxed),
        )
    }

    /// The query's admission/scheduling priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// Charge the gauge from a context where returning `Err` is impossible
/// (worker init closures, hash-table growth inside a tile loop). A failed
/// charge panics with the typed error as payload; the worker's
/// `catch_unwind` harness downcasts it back to the original
/// [`RuntimeError`].
pub fn charge_or_panic(gauge: &MemGauge, bytes: usize) {
    if let Err(e) = gauge.try_charge(bytes) {
        std::panic::panic_any(e);
    }
}

/// Convert a caught panic payload back into a typed error. Payloads thrown
/// via `panic_any(RuntimeError)` (budget charges inside infallible code)
/// pass through unchanged; string panics become [`RuntimeError::Panic`].
pub fn panic_payload_error(payload: Box<dyn std::any::Any + Send>) -> RuntimeError {
    if let Some(e) = payload.downcast_ref::<RuntimeError>() {
        return e.clone();
    }
    let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    };
    RuntimeError::Panic(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultSlot};

    fn armed(event: FaultEvent) -> (Arc<FaultSlot>, crate::faults::FaultGuard) {
        let slot = Arc::new(FaultSlot::default());
        let guard = slot.arm(FaultPlan {
            seed: 0,
            events: vec![event],
        });
        (slot, guard)
    }

    /// The interleaving that made a skewed watchdog trip depend on thread
    /// timing, replayed on one thread: the third morsel's completion
    /// triggers a 10-minute jump, and another worker's morsel completes on
    /// the skewed clock before the next check. The query still stalls.
    #[test]
    fn a_skew_past_the_window_stalls_whatever_completes_after_it() {
        let (slot, _guard) = armed(FaultEvent::ClockSkew {
            after_morsels: Some(2),
            ms: 600_000,
        });
        let ctx = ExecCtx::unbounded()
            .with_stall_window(Some(Duration::from_secs(30)))
            .with_faults(slot.current());
        ctx.add_morsels_total(8);
        for _ in 0..3 {
            ctx.check().expect("no stall before the jump");
            ctx.morsel_done();
        }
        ctx.morsel_done();
        match ctx.check() {
            Err(RuntimeError::Stalled {
                morsels_done: 4,
                morsels_total: 8,
                window_ms: 30_000,
            }) => {}
            other => panic!("expected a stall at 4/8: {other:?}"),
        }
    }

    /// A held morsel is released by whatever stops its query, and fails
    /// with that stop's typed error.
    #[test]
    fn a_hold_ends_when_its_query_stops() {
        for stop in ["abort", "cancel", "trip"] {
            let (slot, _guard) = armed(FaultEvent::Hold { morsel: 1 });
            let ctx = ExecCtx::unbounded().with_faults(slot.current());
            assert!(ctx.fault_at_morsel(0).is_ok(), "{stop}: morsel 0 runs");
            match stop {
                "abort" => ctx.abort(),
                "cancel" => ctx.cancel.cancelled.store(true, Ordering::SeqCst),
                _ => ctx.trip(),
            }
            let err = ctx
                .fault_at_morsel(1)
                .expect_err("the hold fails its morsel");
            assert!(
                matches!(
                    (stop, &err),
                    ("abort", RuntimeError::Shutdown { .. })
                        | ("cancel", RuntimeError::Cancelled { .. })
                        | ("trip", RuntimeError::Stopped)
                ),
                "{stop}: {err:?}"
            );
        }
    }
}
