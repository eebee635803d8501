//! Morsel-driven execution: inline on the calling thread, or on a shared
//! worker pool.
//!
//! An [`Executor`] partitions each scan into tile-aligned morsels claimed
//! from a shared atomic counter — classic morsel-driven scheduling: cheap
//! dynamic load balancing, no work queues — and folds rows into
//! **thread-local** accumulators (scalar slots, hash tables, bitmaps). The
//! caller merges the partials; because every merge (i64 add, min, max,
//! bitmap OR) is commutative and associative, and group-by output is
//! sorted, results are bit-identical at any thread count *and* at any pool
//! concurrency.
//!
//! [`Executor::Inline`] runs every morsel on the submitting thread, so
//! single-thread execution has no parallel tax. [`Executor::Pool`]
//! multiplexes morsels from N concurrent queries over a fixed
//! [`WorkerPool`]. Each stage keeps its own private [`MorselQueue`]
//! (identical partitioning to inline execution); pool workers round-robin
//! across registered stages within the highest present [`Priority`] class,
//! claiming **one morsel per visit** so a long scan cannot monopolize the
//! pool. Accumulators live in a per-stage free list: a worker checks one
//! out per morsel and returns it afterwards, so the number of partials
//! stays bounded by the number of threads that ever touched the stage —
//! the pool's workers plus the submitting thread, which participates in
//! its own stage. That both bounds latency under load and guarantees
//! progress if the pool is saturated.
//!
//! The pool is for stages that have morsels to share. A stage whose queue
//! holds at most one morsel has nothing a second thread could take, so
//! [`Executor::run_morsels`] runs it to completion on the submitting thread
//! through the inline runner — the same `catch_unwind` isolation, boundary
//! checks and fault hook, one partial — and builds no `Stage`.
//! Registration bought such a statement nothing and cost it a type-erased
//! `Arc`, the registry mutex twice, a `notify_all` that woke every sleeping
//! worker to find the queue dry, a condvar wait and the `strong_count`
//! spin below: 19 µs against 4.4 µs for the smallest statement on the
//! 2-vCPU benchmark host (`runtime.pool.min_query_us`). The rule is keyed
//! on the count the queue already computes, so there is no threshold to
//! tune and no caller can tell. Engine shutdown and cancellation reach an
//! inline stage through its [`ExecCtx`], which the engine's lifecycle
//! registry holds, not through the pool's stage registry.
//!
//! **Hardening:** every morsel body (and accumulator init) runs under
//! `catch_unwind`. A panic trips the stage's [`ExecCtx`], sibling claims
//! stop at the next boundary, and the panic surfaces as a typed
//! [`RuntimeError`] — the process (and the pool's worker threads) keep
//! running. The same morsel boundary is the cooperative
//! cancellation/deadline check, and the claimed morsel index feeds the
//! context's armed fault plan, if any.
//!
//! **Lifecycle:** [`WorkerPool::shutdown`] stops the workers and *joins*
//! them — no detached `swole-pool-*` thread survives a drain. Dropping the
//! pool routes through the same path, so the last engine handle going away
//! can never leak a worker thread.
//!
//! # Memory-ordering contract
//!
//! Every atomic in this module is annotated at its use site; the summary:
//!
//! - **Accumulator/partial data** is never published through an atomic at
//!   all: it moves through `Mutex<Vec<T>>` (`Stage::free`), and the
//!   inline runner never leaves its thread. The atomics below only gate
//!   *control flow*, which is why most of them can be `Relaxed`.
//! - `MorselQueue::next` — `Relaxed`. A pure claim ticket: `fetch_add` is
//!   atomic at any ordering, so ranges are disjoint; no worker reads data
//!   another worker wrote based on it.
//! - `Stage::outstanding` / `Stage::exhausted` — `Release`/`Acquire`
//!   pairs. These two *are* load-bearing: `maybe_finish` may run on a pool
//!   worker while the submitter sleeps in `wait_done`, and the
//!   done-signalling decision (queue dry **and** nothing mid-flight) must
//!   observe the claim reservations of every other worker. The actual
//!   wake-up then travels through the `done` mutex + condvar.
//! - Pool shutdown — **not an atomic anymore**: a plain `bool` inside the
//!   registry mutex. The flag is only ever read under the same mutex the
//!   workers sleep on (`next_task`), so mutex acquire/release orders it,
//!   and setting it under the lock before `notify_all` closes the classic
//!   missed-wakeup race a lock-free store allowed in principle.
//! - `ExecCtx` flags (`tripped`, cancellation) are `Relaxed`/`SeqCst` in
//!   `ctx.rs`; here they only short-circuit claim loops, never publish
//!   data.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::admission::Priority;
use crate::ctx::{panic_payload_error, ExecCtx};
use crate::error::{pick_error, RuntimeError};
use swole_kernels::TILE;

/// A shared dispenser of tile-aligned morsel bounds over `0..n_rows`.
struct MorselQueue {
    next: AtomicUsize,
    n_rows: usize,
    /// Rows per claim; always a whole number of tiles.
    step: usize,
}

impl MorselQueue {
    fn new(n_rows: usize, morsel_rows: usize) -> MorselQueue {
        MorselQueue {
            next: AtomicUsize::new(0),
            n_rows,
            step: morsel_rows.div_ceil(TILE).max(1) * TILE,
        }
    }

    /// Claim the next `(start, len, index)` morsel, or `None` when the scan
    /// is exhausted. The index is `start / step`, so a given index names
    /// the same rows at any thread count — what makes injected faults
    /// deterministic.
    fn claim(&self) -> Option<(usize, usize, usize)> {
        // Relaxed suffices: `fetch_add` hands out disjoint ranges at any
        // ordering, and no cross-thread data depends on *when* a claim
        // becomes visible — claimed rows are read-only table data.
        let start = self.next.fetch_add(self.step, Ordering::Relaxed);
        if start >= self.n_rows {
            return None;
        }
        Some((start, self.step.min(self.n_rows - start), start / self.step))
    }

    fn total(&self) -> usize {
        self.n_rows.div_ceil(self.step)
    }
}

/// Run every morsel on the calling thread into one accumulator: pass the
/// cooperative check, init the accumulator, then claim morsels until the
/// queue is dry, the context trips, or a check fails. The check comes
/// before `init`, as in `Stage::step`, so a statement that is already
/// cancelled or expired charges no worker scratch and reports that — not
/// the `BudgetExceeded` a tight budget would raise from `init`. The whole
/// loop — including `init`, so budget charges for worker scratch are
/// covered — runs under `catch_unwind`.
fn run_inline<T, I, B>(
    ctx: &ExecCtx,
    queue: &MorselQueue,
    init: &I,
    body: &B,
) -> Result<Vec<T>, RuntimeError>
where
    I: Fn() -> T,
    B: Fn(&mut T, usize, usize),
{
    // A context tripped by a failure in an earlier phase of the same query
    // stops the stage with `Stopped`.
    let boundary = || match ctx.tripped() {
        true => Err(RuntimeError::Stopped),
        false => ctx.check(),
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        boundary()?;
        let mut local = init();
        while let Some((start, len, index)) = queue.claim() {
            ctx.fault_at_morsel(index)?;
            body(&mut local, start, len);
            ctx.morsel_done();
            boundary()?;
        }
        Ok(vec![local])
    }))
    .unwrap_or_else(|payload| Err(panic_payload_error(payload)));
    if run.is_err() {
        ctx.trip();
    }
    run
}

// ---------------------------------------------------------------------------
// Shared worker pool
// ---------------------------------------------------------------------------

/// A registered unit of pool work: one stage of one query. Pool workers
/// only see this type-erased face; the accumulator type stays with the
/// submitting thread.
trait StageTask: Send + Sync {
    /// Claim and process at most one morsel. `false` means the stage has
    /// no further work for this worker (exhausted, failed, or tripped) and
    /// should be dropped from the registry.
    fn step(&self) -> bool;

    /// Hard-abort the stage for pool shutdown: trip its context so every
    /// participant (including the submitting thread) observes a typed
    /// [`RuntimeError::Shutdown`] at its next morsel boundary.
    fn abort(&self);
}

/// Stage state shared between the submitter and pool workers.
struct Stage<T, I, B> {
    ctx: Arc<ExecCtx>,
    queue: MorselQueue,
    init: I,
    body: B,
    /// Idle accumulators. A worker checks one out per morsel (creating one
    /// via `init` only when the list is empty) and returns it afterwards,
    /// so partial count ≤ distinct threads that ever ran a morsel.
    free: Mutex<Vec<T>>,
    errors: Mutex<Vec<RuntimeError>>,
    /// Morsels currently being processed. Incremented *before* claiming,
    /// so an observer that sees the queue dry and `outstanding == 0` knows
    /// no claimed morsel is still mid-flight.
    outstanding: AtomicUsize,
    exhausted: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl<T, I, B> Stage<T, I, B>
where
    T: Send + 'static,
    I: Fn() -> T + Send + Sync + 'static,
    B: Fn(&mut T, usize, usize) + Send + Sync + 'static,
{
    fn new(ctx: Arc<ExecCtx>, queue: MorselQueue, init: I, body: B) -> Stage<T, I, B> {
        Stage {
            ctx,
            queue,
            init,
            body,
            free: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            outstanding: AtomicUsize::new(0),
            exhausted: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    fn checkout(&self) -> T {
        if let Some(acc) = self.free.lock().expect("stage free list").pop() {
            return acc;
        }
        (self.init)()
    }

    fn fail(&self, e: RuntimeError) {
        self.ctx.trip();
        self.errors.lock().expect("stage error list").push(e);
        // Release pairs with the Acquire in `maybe_finish`/`step`: a
        // thread that sees `exhausted` also sees the error pushed above
        // (the error Mutex alone would suffice for the data, but the flag
        // must not be visible *before* the trip/push).
        self.exhausted.store(true, Ordering::Release);
        self.maybe_finish();
    }

    /// Signal the submitter once no further morsel can be (or is being)
    /// processed. Safe against late claimers: `outstanding` is raised
    /// before any claim, and the queue is monotonic, so once it reports
    /// dry with `outstanding == 0` no partial can appear afterwards on the
    /// success path.
    fn maybe_finish(&self) {
        // Acquire on both flags: observing `exhausted`/`outstanding == 0`
        // must also observe the accumulator returns (free-list pushes) of
        // the workers that got the stage there, so `finish()` drains
        // complete partials.
        let stop = self.exhausted.load(Ordering::Acquire) || self.ctx.tripped();
        if !stop || self.outstanding.load(Ordering::Acquire) != 0 {
            return;
        }
        let mut done = self.done.lock().expect("stage done flag");
        if !*done {
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn wait_done(&self) {
        let mut done = self.done.lock().expect("stage done flag");
        while !*done {
            done = self.done_cv.wait(done).expect("stage done flag");
        }
    }

    /// Drain partials and errors (submitter only, after `wait_done`).
    fn finish(&self) -> (Vec<T>, Vec<RuntimeError>) {
        let partials = std::mem::take(&mut *self.free.lock().expect("stage free list"));
        let errors = std::mem::take(&mut *self.errors.lock().expect("stage error list"));
        (partials, errors)
    }
}

impl<T, I, B> StageTask for Stage<T, I, B>
where
    T: Send + 'static,
    I: Fn() -> T + Send + Sync + 'static,
    B: Fn(&mut T, usize, usize) + Send + Sync + 'static,
{
    fn step(&self) -> bool {
        if self.ctx.tripped() || self.exhausted.load(Ordering::Acquire) {
            self.maybe_finish();
            return false;
        }
        if let Err(e) = self.ctx.check() {
            self.fail(e);
            return false;
        }
        // Reserve before claiming so a concurrent observer cannot see the
        // queue dry with this morsel still mid-flight. AcqRel: the raise
        // must be ordered before the claim (program order holds it there,
        // but the RMW also makes it globally visible before any observer
        // can see the queue dry), and the matching `fetch_sub` releases
        // the body's writes to whoever observes `outstanding == 0`.
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let Some((start, len, index)) = self.queue.claim() else {
            self.exhausted.store(true, Ordering::Release);
            self.outstanding.fetch_sub(1, Ordering::AcqRel);
            self.maybe_finish();
            return false;
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.ctx.fault_at_morsel(index)?;
            let mut acc = self.checkout();
            (self.body)(&mut acc, start, len);
            self.ctx.morsel_done();
            self.free.lock().expect("stage free list").push(acc);
            Ok(())
        }))
        .unwrap_or_else(|payload| Err(panic_payload_error(payload)));
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
        match run {
            Ok(()) => {
                self.maybe_finish();
                true
            }
            Err(e) => {
                self.fail(e);
                false
            }
        }
    }

    fn abort(&self) {
        // Mark the query shutdown-aborted, then trip so workers already
        // past their `check()` still stop claiming. The submitter (or a
        // worker) records the typed error at its next boundary via
        // `check()`; `maybe_finish` wakes a submitter that is already
        // asleep in `wait_done` with nothing outstanding.
        self.ctx.abort();
        self.ctx.trip();
        self.maybe_finish();
    }
}

struct RegisteredStage {
    id: u64,
    priority: Priority,
    task: Arc<dyn StageTask>,
}

#[derive(Default)]
struct Registry {
    stages: Vec<RegisteredStage>,
    next_id: u64,
    rr: usize,
    /// Plain bool, not an atomic: only ever read/written under this mutex
    /// (the one workers sleep on), so setting it before `notify_all`
    /// cannot race with a worker deciding to wait — see the module-level
    /// memory-ordering contract.
    shutdown: bool,
    /// Worker threads that have not yet exited `worker_loop`. Drained to
    /// zero (under `exit_cv`) before `shutdown` joins the handles.
    live_workers: usize,
}

struct PoolShared {
    registry: Mutex<Registry>,
    work_cv: Condvar,
    /// Signalled by each worker as it exits; `shutdown` waits on it until
    /// `live_workers` reaches zero.
    exit_cv: Condvar,
}

/// A fixed set of persistent worker threads multiplexing morsels from
/// every stage registered with the pool.
///
/// Workers pick the next stage by [`Priority`] class (higher classes
/// starve lower ones by design) and round-robin within the class, running
/// one morsel per visit. [`WorkerPool::shutdown`] (and `Drop`, which
/// routes through it) stops the workers and joins them; stages registered
/// after shutdown still complete because their submitting threads keep
/// stepping — they just run submitter-only.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    /// Join handles for the spawned workers, drained exactly once by
    /// [`WorkerPool::shutdown`].
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn a pool with `workers` persistent threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            registry: Mutex::new(Registry::default()),
            work_cv: Condvar::new(),
            exit_cv: Condvar::new(),
        });
        // Account for the workers before spawning them so a shutdown racing
        // pool construction still waits for every thread.
        shared.registry.lock().expect("pool registry").live_workers = workers;
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("swole-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker"),
            );
        }
        WorkerPool {
            shared,
            workers,
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker threads that have not yet exited (for leak checks; `0` after
    /// a completed [`WorkerPool::shutdown`]).
    pub fn live_workers(&self) -> usize {
        self.shared
            .registry
            .lock()
            .expect("pool registry")
            .live_workers
    }

    /// Stop and join every worker thread.
    ///
    /// Without a deadline, waits for workers to finish their current
    /// morsel and exit — in-flight stages keep completing through their
    /// submitting threads. With a deadline, waits until then for a clean
    /// exit; if workers are still busy when it passes, every registered
    /// stage is hard-aborted (its query surfaces
    /// [`RuntimeError::Shutdown`] at the next morsel boundary) and the
    /// join then completes. Returns `true` when the drain finished without
    /// aborting anything. Idempotent: later calls see no live workers and
    /// return immediately.
    pub fn shutdown(&self, deadline: Option<Instant>) -> bool {
        {
            let mut reg = self.shared.registry.lock().expect("pool registry");
            reg.shutdown = true;
        }
        // Notify *after* releasing the lock so woken workers can take it.
        self.shared.work_cv.notify_all();
        let mut clean = true;
        let mut reg = self.shared.registry.lock().expect("pool registry");
        if let Some(deadline) = deadline {
            while reg.live_workers > 0 {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = self
                    .shared
                    .exit_cv
                    .wait_timeout(reg, deadline - now)
                    .expect("pool registry");
                reg = guard;
            }
            if reg.live_workers > 0 {
                // Deadline passed with workers still on morsels: abort the
                // registered stages so every participant bails at its next
                // boundary with a typed error. Cooperative — a morsel body
                // that never returns would still wedge the join below.
                // (Idle workers that merely have not woken to exit yet
                // leave nothing to abort, and the drain clean.)
                clean = reg.stages.is_empty();
                for stage in &reg.stages {
                    stage.task.abort();
                }
            }
        }
        while reg.live_workers > 0 {
            reg = self.shared.exit_cv.wait(reg).expect("pool registry");
        }
        drop(reg);
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool handles"));
        for handle in handles {
            // Workers contain their panics via catch_unwind in step(), so
            // join failures are not expected; swallow rather than poison a
            // drain.
            let _ = handle.join();
        }
        clean
    }

    fn register(&self, priority: Priority, task: Arc<dyn StageTask>) -> u64 {
        let mut reg = self.shared.registry.lock().expect("pool registry");
        let id = reg.next_id;
        reg.next_id += 1;
        reg.stages.push(RegisteredStage { id, priority, task });
        drop(reg);
        self.shared.work_cv.notify_all();
        id
    }

    fn unregister(&self, id: u64) {
        let mut reg = self.shared.registry.lock().expect("pool registry");
        reg.stages.retain(|s| s.id != id);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Route through the graceful path: stop admission of new morsels
        // to pool threads and *join* them, so dropping the last engine
        // handle cannot leak a detached `swole-pool-*` thread.
        self.shutdown(None);
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    while let Some((id, task)) = next_task(&shared) {
        if !task.step() {
            // Stage out of work; drop it from the registry so idle workers
            // stop revisiting it (the submitter's unregister is a no-op
            // then).
            let mut reg = shared.registry.lock().expect("pool registry");
            reg.stages.retain(|s| s.id != id);
        }
    }
    // Shutdown observed: account this thread out and wake the joiner.
    let mut reg = shared.registry.lock().expect("pool registry");
    reg.live_workers -= 1;
    drop(reg);
    shared.exit_cv.notify_all();
}

fn next_task(shared: &PoolShared) -> Option<(u64, Arc<dyn StageTask>)> {
    let mut reg = shared.registry.lock().expect("pool registry");
    loop {
        // Plain bool read: we hold the registry mutex, the only place the
        // flag is written, so no atomic is needed and the set-then-notify
        // in `shutdown` cannot slip between this check and the wait below.
        if reg.shutdown {
            return None;
        }
        if let Some(pick) = pick_stage(&mut reg) {
            return Some(pick);
        }
        reg = shared.work_cv.wait(reg).expect("pool registry");
    }
}

/// Round-robin over the stages of the highest priority class present.
/// Runs under the registry mutex once per morsel of every pooled stage, so
/// it counts the class and walks to its `rr`-th member, allocating nothing.
fn pick_stage(reg: &mut Registry) -> Option<(u64, Arc<dyn StageTask>)> {
    let top = reg.stages.iter().map(|s| s.priority).max()?;
    let class = || reg.stages.iter().filter(|s| s.priority == top);
    let stage = class().nth(reg.rr % class().count())?;
    let pick = (stage.id, Arc::clone(&stage.task));
    reg.rr = reg.rr.wrapping_add(1);
    Some(pick)
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Where a query's morsels run.
pub enum Executor {
    /// Every morsel on the thread that submits the stage.
    Inline,
    /// A fixed shared pool multiplexing morsels from all concurrent
    /// queries, the submitting thread working beside it.
    Pool(WorkerPool),
}

impl Executor {
    /// The executor for `threads`-way execution: inline at one thread, a
    /// pool of `threads` persistent workers above.
    pub fn new(threads: usize) -> Executor {
        match threads {
            0 | 1 => Executor::Inline,
            n => Executor::pool(n),
        }
    }

    /// A shared-pool executor with `workers` persistent threads.
    pub fn pool(workers: usize) -> Executor {
        Executor::Pool(WorkerPool::new(workers))
    }

    /// The most partials one stage can hand back, hence the most
    /// accumulators alive at once: one inline; on the pool, one per worker
    /// plus the submitting thread's.
    pub fn max_partials(&self) -> usize {
        match self {
            Executor::Inline => 1,
            Executor::Pool(pool) => pool.workers() + 1,
        }
    }

    /// Stop and join any persistent worker threads. A no-op (`true`)
    /// inline; see [`WorkerPool::shutdown`] for pool semantics.
    pub fn shutdown(&self, deadline: Option<Instant>) -> bool {
        match self {
            Executor::Inline => true,
            Executor::Pool(pool) => pool.shutdown(deadline),
        }
    }

    /// Persistent worker threads still running (`0` inline and for pools
    /// after a completed shutdown).
    pub fn live_workers(&self) -> usize {
        match self {
            Executor::Inline => 0,
            Executor::Pool(pool) => pool.live_workers(),
        }
    }

    /// Run `body` over every morsel of `0..n_rows`, folding into
    /// `init()`-built accumulators. Returns all per-thread accumulators
    /// (at least one, even for zero-row inputs, and at most
    /// [`Executor::max_partials`]) for the caller's merge phase, or the
    /// highest-priority failure if any thread was interrupted.
    ///
    /// On the pool, a stage of at most one morsel runs on the calling
    /// thread and is never registered (see the module docs); morsel
    /// bounds and the merge are the same either way.
    ///
    /// The closures must be `'static` because pool workers outlive the
    /// call stack; capture table data via `Arc`.
    pub fn run_morsels<T, I, B>(
        &self,
        ctx: &Arc<ExecCtx>,
        n_rows: usize,
        morsel_rows: usize,
        init: I,
        body: B,
    ) -> Result<Vec<T>, RuntimeError>
    where
        T: Send + 'static,
        I: Fn() -> T + Send + Sync + 'static,
        B: Fn(&mut T, usize, usize) + Send + Sync + 'static,
    {
        let queue = MorselQueue::new(n_rows, morsel_rows);
        ctx.add_morsels_total(queue.total());
        match self {
            // At most one morsel: nothing to share, so nothing to register.
            Executor::Pool(pool) if queue.total() > 1 => run_pooled(pool, ctx, queue, init, body),
            _ => run_inline(ctx, &queue, &init, &body),
        }
    }
}

fn run_pooled<T, I, B>(
    pool: &WorkerPool,
    ctx: &Arc<ExecCtx>,
    queue: MorselQueue,
    init: I,
    body: B,
) -> Result<Vec<T>, RuntimeError>
where
    T: Send + 'static,
    I: Fn() -> T + Send + Sync + 'static,
    B: Fn(&mut T, usize, usize) + Send + Sync + 'static,
{
    let stage = Arc::new(Stage::new(Arc::clone(ctx), queue, init, body));
    let id = pool.register(ctx.priority(), Arc::clone(&stage) as Arc<dyn StageTask>);
    // The submitting thread works its own stage too: progress is
    // guaranteed even if every pool worker is busy on other queries.
    while stage.step() {}
    stage.wait_done();
    pool.unregister(id);
    // A pool worker may still hold a transient clone of the stage from its
    // last visit (it drops it right after removing the stage from the
    // registry). Wait it out before returning: the stage owns the query's
    // `ExecCtx`, and resource release (global-memory charges, pool
    // registration) must be observable the moment this call returns, not
    // a beat later. The visits left are claim-nothing exits, so this spin
    // is microseconds at worst.
    while Arc::strong_count(&stage) > 1 {
        std::thread::yield_now();
    }
    let (partials, errors) = stage.finish();
    if !errors.is_empty() {
        return Err(pick_error(errors));
    }
    if ctx.tripped() {
        // Tripped by a failure in an earlier phase of the same query.
        return Err(RuntimeError::Stopped);
    }
    // At least one: `run_morsels` sends only stages of two or more morsels
    // here, and every morsel body returned its accumulator.
    Ok(partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::CancelState;
    use crate::faults::{FaultPlan, FaultSlot};
    use crate::ExecHandle;

    fn executors() -> Vec<(&'static str, Executor)> {
        vec![("inline", Executor::Inline), ("pool-3", Executor::pool(3))]
    }

    #[test]
    fn all_rows_claimed_exactly_once() {
        for (name, exec) in executors() {
            for n in [0usize, 1, TILE, 10 * TILE + 13] {
                let ctx = Arc::new(ExecCtx::unbounded());
                let partials = exec
                    .run_morsels(
                        &ctx,
                        n,
                        2 * TILE,
                        Vec::new,
                        |seen: &mut Vec<(usize, usize)>, start, len| seen.push((start, len)),
                    )
                    .expect("no faults armed");
                let mut all: Vec<_> = partials.into_iter().flatten().collect();
                all.sort_unstable();
                let covered: usize = all.iter().map(|&(_, l)| l).sum();
                assert_eq!(covered, n, "exec={name} n={n}");
                let mut end = 0;
                for (s, l) in all {
                    assert_eq!(s, end, "exec={name} n={n}");
                    end = s + l;
                }
            }
        }
    }

    #[test]
    fn worker_panic_is_contained() {
        for (name, exec) in executors() {
            let ctx = Arc::new(ExecCtx::unbounded());
            let err = exec
                .run_morsels(
                    &ctx,
                    8 * TILE,
                    TILE,
                    || (),
                    |_, start, _| {
                        if start == 3 * TILE {
                            panic!("boom at {start}");
                        }
                    },
                )
                .expect_err("panic must surface as an error");
            match err {
                RuntimeError::Panic(msg) => assert!(msg.contains("boom"), "exec={name}: {msg}"),
                other => panic!("exec={name}: unexpected error: {other:?}"),
            }
            assert!(ctx.tripped(), "exec={name}");
        }
    }

    #[test]
    fn typed_panic_payload_passes_through() {
        for (name, exec) in executors() {
            let ctx = Arc::new(ExecCtx::unbounded());
            let err = exec
                .run_morsels(
                    &ctx,
                    4 * TILE,
                    TILE,
                    || (),
                    |_, _, _| {
                        std::panic::panic_any(RuntimeError::BudgetExceeded {
                            requested: 1,
                            used: 2,
                            budget: 3,
                        });
                    },
                )
                .expect_err("typed panic must surface");
            assert_eq!(
                err,
                RuntimeError::BudgetExceeded {
                    requested: 1,
                    used: 2,
                    budget: 3,
                },
                "exec={name}"
            );
        }
    }

    #[test]
    fn cancellation_is_observed_at_morsel_boundaries() {
        for (name, exec) in executors() {
            let cancel = Arc::new(CancelState::default());
            ExecHandle::new(Arc::clone(&cancel)).cancel();
            let ctx = Arc::new(ExecCtx::new(cancel, None, None, None, Priority::Normal));
            let err = exec
                .run_morsels(&ctx, 4 * TILE, TILE, || (), |_, _, _| {})
                .expect_err("pre-cancelled ctx must refuse work");
            assert!(
                matches!(err, RuntimeError::Cancelled { .. }),
                "exec={name}: {err:?}"
            );
        }
    }

    /// A context that is already cancelled, under a budget `init` cannot
    /// meet: every executor checks before it checks an accumulator out, so
    /// all report the cancellation and none charges worker scratch.
    #[test]
    fn pre_cancelled_context_under_a_tight_budget_is_cancelled_everywhere() {
        let cases = [
            ("inline", Executor::Inline, 8),
            ("pool-2, one morsel", Executor::pool(2), 1),
            ("pool-2, eight morsels", Executor::pool(2), 8),
        ];
        for (name, exec, morsels) in cases {
            let cancel = Arc::new(CancelState::default());
            ExecHandle::new(Arc::clone(&cancel)).cancel();
            let ctx = Arc::new(ExecCtx::new(cancel, None, Some(1), None, Priority::Normal));
            let scratch = Arc::clone(&ctx);
            let err = exec
                .run_morsels(
                    &ctx,
                    morsels * TILE,
                    TILE,
                    move || crate::charge_or_panic(&scratch.gauge, 64),
                    |_, _, _| {},
                )
                .expect_err("pre-cancelled ctx must refuse work");
            assert!(
                matches!(
                    err,
                    RuntimeError::Cancelled {
                        morsels_done: 0,
                        ..
                    }
                ),
                "exec={name}: {err:?}"
            );
            assert_eq!(ctx.gauge.used(), 0, "exec={name}");
        }
    }

    /// The inline rule: a stage of at most one morsel runs where it was
    /// submitted, on the pool as inline, and hands back one partial — the
    /// `init()` one when there are no rows at all.
    #[test]
    fn one_morsel_stage_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        for (name, exec) in executors() {
            for n in [0usize, 1, TILE, 2 * TILE] {
                let ctx = Arc::new(ExecCtx::unbounded());
                let partials = exec
                    .run_morsels(&ctx, n, 2 * TILE, Vec::new, |ran: &mut Vec<_>, _, len| {
                        ran.push((std::thread::current().id(), len))
                    })
                    .expect("no faults armed");
                assert_eq!(partials.len(), 1, "exec={name} n={n}");
                assert!(
                    partials[0].iter().all(|&(id, _)| id == me),
                    "exec={name} n={n}"
                );
                let lens: Vec<usize> = partials.iter().flatten().map(|&(_, l)| l).collect();
                assert_eq!(lens, if n == 0 { vec![] } else { vec![n] }, "exec={name}");
                assert_eq!(ctx.progress(), (lens.len(), lens.len()), "exec={name}");
            }
        }
    }

    /// A panic in an inline stage is the stage's failure and nobody else's:
    /// typed payload through, context tripped, and the executor — every
    /// pool worker included — serves the next, shared stage.
    #[test]
    fn panicking_one_morsel_stage_leaves_the_executor_serving() {
        for (name, exec) in executors() {
            let workers = exec.live_workers();
            let ctx = Arc::new(ExecCtx::unbounded());
            let failure = RuntimeError::BudgetExceeded {
                requested: 1,
                used: 2,
                budget: 3,
            };
            let payload = failure.clone();
            let err = exec
                .run_morsels(
                    &ctx,
                    TILE,
                    TILE,
                    || (),
                    move |_, _, _| std::panic::panic_any(payload.clone()),
                )
                .expect_err("typed panic must surface");
            assert_eq!(err, failure, "exec={name}");
            assert!(ctx.tripped(), "exec={name}");
            let ctx = Arc::new(ExecCtx::unbounded());
            let partials = exec
                .run_morsels(&ctx, 8 * TILE, TILE, || 0usize, |acc, _, len| *acc += len)
                .expect("the failure stayed with its stage");
            assert_eq!(partials.into_iter().sum::<usize>(), 8 * TILE, "exec={name}");
            assert_eq!(exec.live_workers(), workers, "exec={name}");
        }
    }

    /// A panic armed at morsel 0 fires on a stage that runs inline, inline
    /// or on the pool, once; the same executor then serves the next stages.
    #[test]
    fn injected_panic_at_morsel_zero_fires_on_an_inline_stage() {
        for (name, exec) in executors() {
            let workers = exec.live_workers();
            let slot = Arc::new(FaultSlot::default());
            let run = |rows| {
                let ctx = Arc::new(ExecCtx::unbounded().with_faults(slot.current()));
                let out = exec.run_morsels(&ctx, rows, TILE, || 0usize, |acc, _, len| *acc += len);
                (out.map(|p| p.into_iter().sum::<usize>()), ctx.tripped())
            };
            let guard = slot.arm(FaultPlan::panic_at_morsel(0));
            match run(TILE) {
                (Err(RuntimeError::Panic(msg)), true) => {
                    assert!(msg.contains("injected fault"), "exec={name}: {msg}")
                }
                other => panic!("exec={name}: the armed fault did not fire: {other:?}"),
            }
            // One-shot, and contained: the same executor runs the next stages.
            assert_eq!(run(TILE), (Ok(TILE), false), "exec={name}");
            drop(guard);
            assert_eq!(run(TILE), (Ok(TILE), false), "exec={name}");
            assert_eq!(run(8 * TILE), (Ok(8 * TILE), false), "exec={name}");
            assert_eq!(exec.live_workers(), workers, "exec={name}");
        }
    }

    /// The submitting thread checks out an accumulator of its own, so a
    /// pool of one worker can hand back two partials: the barrier in the
    /// first morsel of each accumulator only opens once the worker and the
    /// submitter hold one each at the same time.
    #[test]
    fn pool_partials_count_the_submitting_thread() {
        let exec = Executor::pool(1);
        assert_eq!(exec.max_partials(), 2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let ctx = Arc::new(ExecCtx::unbounded());
        let partials = exec
            .run_morsels(
                &ctx,
                4 * TILE,
                TILE,
                || (true, 0usize),
                move |(first, rows): &mut (bool, usize), _, len| {
                    if std::mem::take(first) {
                        barrier.wait();
                    }
                    *rows += len;
                },
            )
            .expect("no faults armed");
        assert_eq!(partials.len(), exec.max_partials());
        assert_eq!(
            partials.iter().map(|&(_, rows)| rows).sum::<usize>(),
            4 * TILE
        );
        assert_eq!(Executor::Inline.max_partials(), 1);
    }

    #[test]
    fn pool_runs_concurrent_stages_to_identical_results() {
        let exec = Arc::new(Executor::pool(3));
        // Miri interprets every accumulator iteration; shrink the row
        // count (and the client herd) so the interleavings still get
        // explored without minutes of interpretation.
        let (n, clients) = if cfg!(miri) {
            (4 * TILE + 7, 2)
        } else {
            (64 * TILE + 7, 8)
        };
        let solo: i64 = (0..n as i64).sum();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let exec = Arc::clone(&exec);
                std::thread::spawn(move || {
                    let ctx = Arc::new(ExecCtx::unbounded());
                    let partials = exec
                        .run_morsels(
                            &ctx,
                            n,
                            2 * TILE,
                            || 0i64,
                            |acc, start, len| {
                                for i in start..start + len {
                                    *acc += i as i64;
                                }
                            },
                        )
                        .expect("no faults armed");
                    partials.into_iter().sum::<i64>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("client thread"), solo);
        }
    }

    #[test]
    fn shutdown_joins_all_workers_and_is_idempotent() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.live_workers(), 3);
        assert!(pool.shutdown(None), "idle pool drains cleanly");
        assert_eq!(pool.live_workers(), 0);
        assert!(pool.shutdown(None), "second shutdown is a no-op");
        assert!(pool.shutdown(Some(Instant::now())), "deadline form too");
    }

    #[test]
    fn stages_after_shutdown_run_submitter_only() {
        let exec = Executor::pool(2);
        assert!(exec.shutdown(None));
        assert_eq!(exec.live_workers(), 0);
        let ctx = Arc::new(ExecCtx::unbounded());
        let n = 8 * TILE;
        let partials = exec
            .run_morsels(
                &ctx,
                n,
                TILE,
                || 0usize,
                |acc, _, len| {
                    *acc += len;
                },
            )
            .expect("submitter keeps stepping after pool shutdown");
        assert_eq!(partials.into_iter().sum::<usize>(), n);
    }

    #[test]
    fn pool_failure_in_one_stage_leaves_others_untouched() {
        let exec = Arc::new(Executor::pool(2));
        let n = 32 * TILE;
        let good = {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                let ctx = Arc::new(ExecCtx::unbounded());
                exec.run_morsels(
                    &ctx,
                    n,
                    TILE,
                    || 0usize,
                    |acc, _, len| {
                        *acc += len;
                    },
                )
                .map(|p| p.into_iter().sum::<usize>())
            })
        };
        let ctx = Arc::new(ExecCtx::unbounded());
        let err = exec
            .run_morsels(
                &ctx,
                n,
                TILE,
                || (),
                |_, start, _| {
                    if start >= 8 * TILE {
                        panic!("stage-local failure");
                    }
                },
            )
            .expect_err("panicking stage must fail");
        assert!(matches!(err, RuntimeError::Panic(_)));
        assert_eq!(good.join().expect("good stage thread"), Ok(n));
    }
}
