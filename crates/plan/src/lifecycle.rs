//! The engine's lifecycle: the gate that knows which queries are in flight,
//! [`Engine::shutdown`]'s drain-then-abort over it, and the accessors that
//! say what the engine is doing now.

use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use crate::cache::{FallbackBreakerStats, PlanCacheStats};
use crate::engine::{Engine, EngineInner};
use crate::error::PlanError;
use swole_runtime::{AdmissionError, ExecCtx, MemoryPoolStats};

/// Engine lifecycle phases. `Running` admits queries; `Draining` and
/// `Stopped` reject them at the front door with a typed shutdown error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Draining,
    Stopped,
}

/// Tracks every in-flight query so [`Engine::shutdown`] can drain them —
/// and, past the drain deadline, hard-abort them through their contexts.
pub(crate) struct Lifecycle {
    state: Mutex<LifecycleState>,
    /// Signalled whenever a query exits (its [`QueryGuard`] drops).
    cv: Condvar,
}

struct LifecycleState {
    phase: Phase,
    next_id: u64,
    /// Live query contexts, held weakly: execution owns the strong `Arc`,
    /// so a query that finished between the deadline check and the abort
    /// simply fails to upgrade.
    live: Vec<(u64, Weak<ExecCtx>)>,
}

impl Lifecycle {
    pub(crate) fn new() -> Lifecycle {
        Lifecycle {
            state: Mutex::new(LifecycleState {
                phase: Phase::Running,
                next_id: 0,
                live: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Front-door gate, entered before admission: counts the query as in
    /// flight (the returned guard un-counts it on drop, success or error)
    /// or rejects it when the engine is draining or stopped. The rejection
    /// reuses [`AdmissionError::Shutdown`] so callers see one shutdown
    /// error whether or not an admission controller is configured.
    pub(crate) fn enter(&self) -> Result<QueryGuard<'_>, PlanError> {
        let mut st = self.state.lock().expect("engine lifecycle");
        if st.phase != Phase::Running {
            return Err(PlanError::Admission(AdmissionError::Shutdown));
        }
        let id = st.next_id;
        st.next_id += 1;
        st.live.push((id, Weak::new()));
        Ok(QueryGuard {
            lifecycle: self,
            id,
        })
    }
}

/// The last engine handle going away routes through the graceful-drain
/// tail: close admission, join the pool workers. No query can still be in
/// flight — every execution path holds an `Arc<EngineInner>` clone — so
/// this never blocks on a drain, only on workers finishing their current
/// morsel.
impl Drop for EngineInner {
    fn drop(&mut self) {
        if let Some(ctl) = &self.admission {
            ctl.close();
        }
        self.executor.shutdown(None);
    }
}

/// RAII presence of one query in the lifecycle registry.
pub(crate) struct QueryGuard<'a> {
    lifecycle: &'a Lifecycle,
    id: u64,
}

impl QueryGuard<'_> {
    /// Register the query's execution context so a deadline-abort can
    /// reach it (queries still queued in admission have no context yet and
    /// exit through the flushed queue instead).
    pub(crate) fn attach(&self, ctx: &Arc<ExecCtx>) {
        let mut st = self.lifecycle.state.lock().expect("engine lifecycle");
        if let Some(slot) = st.live.iter_mut().find(|(id, _)| *id == self.id) {
            slot.1 = Arc::downgrade(ctx);
        }
    }
}

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.lifecycle.state.lock().expect("engine lifecycle");
        st.live.retain(|(id, _)| *id != self.id);
        drop(st);
        self.lifecycle.cv.notify_all();
    }
}

/// What [`Engine::shutdown`] did, for operators and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Queries in flight when the drain began that exited on their own
    /// (completed, failed, or were flushed from the admission queue).
    pub drained: usize,
    /// Queries hard-aborted (with [`PlanError::Shutdown`]) because the
    /// drain deadline passed first.
    pub aborted: usize,
    /// `true` when nothing had to be aborted and the worker pool joined
    /// within the deadline.
    pub clean: bool,
    /// Wall-clock duration of the whole shutdown.
    pub wait: Duration,
}

impl Engine {
    /// Queries currently inside the engine (queued in admission or
    /// executing), as tracked by the lifecycle gate. `0` on an idle or
    /// stopped engine.
    pub fn queries_in_flight(&self) -> usize {
        let st = self.inner.lifecycle.state.lock().expect("engine lifecycle");
        st.live.len()
    }

    /// Activity counters of the session's plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.cache.stats()
    }

    /// Activity of the interpreter-fallback circuit breaker: how many plan
    /// classes are currently short-circuited past their primary strategy,
    /// and how many executions have skipped it.
    pub fn fallback_breaker_stats(&self) -> FallbackBreakerStats {
        self.inner.cache.breaker_stats()
    }

    /// Live reservations of the engine-wide memory pool, when
    /// [`crate::EngineBuilder::global_memory_budget`] configured one.
    pub fn global_memory_stats(&self) -> Option<MemoryPoolStats> {
        self.inner.global.as_ref().map(|g| g.stats())
    }

    /// `(running, queued)` under admission control, when
    /// [`crate::EngineBuilder::admission`] configured it.
    pub fn admission_in_flight(&self) -> Option<(usize, usize)> {
        self.inner.admission.as_ref().map(|a| a.in_flight())
    }

    /// Worker threads of the engine's pool still running (`0` for a
    /// one-thread engine, which has no pool, and after
    /// [`Engine::shutdown`]).
    pub fn live_pool_workers(&self) -> usize {
        self.inner.executor.live_workers()
    }

    /// Gracefully shut the engine down: stop admitting queries, drain the
    /// ones in flight, and join the worker-pool threads.
    ///
    /// The sequence: (1) the lifecycle gate flips to draining, so new
    /// arrivals on *any* façade (engine, session, prepared statement) fail
    /// with [`PlanError::Admission`]/[`AdmissionError::Shutdown`]; (2) the
    /// admission queue and the memory pool's reservation queue are closed,
    /// flushing their waiters with the same typed error; (3) in-flight
    /// queries run to completion — or, once `deadline` passes, are
    /// hard-aborted and surface
    /// [`PlanError::Shutdown`] with partial-progress counts (`None` waits
    /// indefinitely); (4) pool workers are joined, so no `swole-pool-*`
    /// thread survives. Every aborted query still releases its admission
    /// slot and global-memory reservation through the normal RAII paths.
    ///
    /// Idempotent: later calls (and queries racing them) observe the
    /// stopped state. Clones of this engine share the shutdown — it is an
    /// engine-wide, not per-handle, transition.
    pub fn shutdown(&self, deadline: Option<Duration>) -> ShutdownReport {
        let inner = &self.inner;
        let t0 = Instant::now();
        let deadline_at = deadline.map(|d| t0 + d);
        {
            let mut st = inner.lifecycle.state.lock().expect("engine lifecycle");
            if st.phase == Phase::Stopped {
                return ShutdownReport {
                    drained: 0,
                    aborted: 0,
                    clean: true,
                    wait: t0.elapsed(),
                };
            }
            st.phase = Phase::Draining;
        }
        // Flush queued waiters — for a slot or for memory — with the typed
        // shutdown rejection; their lifecycle guards drop as they exit,
        // which counts them drained.
        if let Some(ctl) = &inner.admission {
            ctl.close();
        }
        if let Some(pool) = &inner.global {
            pool.close();
        }
        let mut aborted = 0usize;
        let mut st = inner.lifecycle.state.lock().expect("engine lifecycle");
        let started_with = st.live.len();
        if let Some(at) = deadline_at {
            while !st.live.is_empty() {
                let now = Instant::now();
                if now >= at {
                    break;
                }
                let (guard, _) = inner
                    .lifecycle
                    .cv
                    .wait_timeout(st, at - now)
                    .expect("engine lifecycle");
                st = guard;
            }
            // Deadline passed with queries still live: abort them through
            // their contexts; each observes RuntimeError::Shutdown at its
            // next morsel boundary and exits through its normal error
            // path (releasing permit, gauge, and lifecycle slot).
            for (_, weak) in &st.live {
                if let Some(ctx) = weak.upgrade() {
                    ctx.abort();
                    ctx.trip();
                    aborted += 1;
                }
            }
        }
        while !st.live.is_empty() {
            st = inner.lifecycle.cv.wait(st).expect("engine lifecycle");
        }
        st.phase = Phase::Stopped;
        drop(st);
        let pool_clean = inner.executor.shutdown(deadline_at);
        ShutdownReport {
            drained: started_with - aborted,
            aborted,
            clean: aborted == 0 && pool_clean,
            wait: t0.elapsed(),
        }
    }
}
