//! The engine: a statement's lifecycle and nothing else.
//!
//! [`Engine`] owns what outlives a statement — the database behind its lock,
//! the statistics snapshots, the plan cache, the executor, admission and the
//! memory pool — and [`EngineInner::query_leveled`] is the one path a
//! statement takes through them: lifecycle gate → plan (through the cache) →
//! certify → admit → execute → fall back → record. Everything else has its own
//! home: planning is [`crate::planner`], running a planned shape is
//! [`crate::exec`], the report is [`crate::explain`], configuration is
//! [`crate::builder`], the drain is [`crate::lifecycle`], and what a
//! statement hands back is [`crate::result`].
//!
//! A statement has one plan. `query_leveled` hands back the plan it executed,
//! which is what `EXPLAIN ANALYZE` renders; plain `EXPLAIN` and `EXPLAIN
//! VERIFY` render the cached plan when the next execution would hit it and
//! plan fresh only otherwise. The doors that always plan from scratch —
//! [`Engine::plan`], [`Engine::verify_plan`], [`Engine::certificate`] and
//! the EXPLAINs on a miss — share [`EngineInner::plan_fresh`]; only
//! [`EngineInner::plan_cached`] honours the cache and its drift hint.

use std::ops::Deref;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use crate::builder::{EngineBuilder, StrategyOverrides};
use crate::cache::{
    hash_of, BreakerDecision, CacheLookup, FallbackBreakerStats, Hit, PlanCache, PlanCacheStats,
    TextLookup,
};
use crate::catalog::Database;
use crate::error::PlanError;
use crate::exec::{execute_shape, ExecOpts};
use crate::explain::{cost_comparison, join_tree, Explain};
use crate::lifecycle::{Lifecycle, QueryGuard};
use crate::logical::LogicalPlan;
use crate::metrics::{MetricsLevel, OpMetrics, QueryMetrics};
use crate::physical::PhysicalPlan;
use crate::planner::{PlanHints, Planner};
use crate::result::QueryResult;
use crate::session::{QueryOptions, Session};
use crate::stats::{self, StatsCatalog};
use swole_cost::CostParams;
use swole_runtime::faults::{FaultGuard, FaultPlan, FaultSlot};
use swole_runtime::{
    AdmissionController, AdmissionError, AdmissionPermit, CancelState, ExecCtx, ExecHandle,
    Executor, GlobalMemoryPool, MemoryPoolStats, Priority,
};
use swole_storage::Table;
use swole_verify::ir::Program;
use swole_verify::{
    BoundsCtx, ColumnProfile, PlanCertificate, TableProfile, VerifyLevel, VerifyReport,
};

/// Run `f` under panic isolation: a panic anywhere inside (submitter-side
/// evaluation, merge code, or a worker payload re-thrown by the executor)
/// is contained to the query and surfaced as a typed [`PlanError`].
fn isolate<T>(f: impl FnOnce() -> Result<T, PlanError>) -> Result<T, PlanError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => match payload.downcast::<PlanError>() {
            Ok(e) => Err(*e),
            Err(p) => Err(swole_runtime::panic_payload_error(p).into()),
        },
    }
}

/// Per-call options resolved against the engine's defaults: `limits` holds
/// the merged optional ones (deadline, memory budget, stall window); the
/// other three have taken their hard default by now.
struct ResolvedOpts {
    limits: QueryOptions,
    metrics: MetricsLevel,
    verify: VerifyLevel,
    priority: Priority,
}

/// What a statement is run from: a logical plan, or an ad-hoc SQL text run
/// without parameters, which a warm cache answers without parsing it.
#[derive(Clone, Copy)]
pub(crate) enum Statement<'a> {
    Plan(&'a LogicalPlan),
    Text(&'a str),
}

/// A statement's plans as [`EngineInner::plan_cached`] resolved them, with
/// the fingerprint they are cached under and the admission certificate.
struct Planned {
    fingerprint: u64,
    logical: Arc<LogicalPlan>,
    physical: Arc<PhysicalPlan>,
    cert: Arc<PlanCertificate>,
}

/// The runtime report of the most recent statement, under its plan's
/// fingerprint: what went wrong, line by line, and for a primary run that
/// succeeded, its figures — kept as values, rendered only when an `EXPLAIN`
/// asks.
#[derive(Default)]
struct LastRun {
    fingerprint: Option<u64>,
    lines: Vec<String>,
    ok: Option<RunOk>,
}

/// A primary run that succeeded: the plan it ran, morsels done of total,
/// and the bytes its gauge was charged.
struct RunOk {
    plan: Arc<PhysicalPlan>,
    done: usize,
    total: usize,
    charged: usize,
}

impl RunOk {
    /// The run's line in the report.
    fn line(&self) -> String {
        let (strategy, done, total) = (&self.plan.strategy, self.done, self.total);
        format!(
            "{strategy}: ok ({done}/{total} morsels, {} B charged)",
            self.charged
        )
    }
}

/// What the attempts of one statement share: how its operators execute and
/// meter, its execution context, when it started, and the certificate it was
/// admitted under.
struct Run<'a> {
    opts: ExecOpts<'a>,
    ctx: &'a Arc<ExecCtx>,
    t0: Option<Instant>,
    cert: &'a PlanCertificate,
}

/// The access-aware query engine: owns a [`Database`] and cost parameters,
/// plans logical queries through the paper's choosers (thread-aware when
/// the session is parallel), and executes them with the `swole-kernels`
/// loop bodies on morsel-driven workers — inline on the querying thread at
/// one thread, on the engine's worker pool at [`EngineBuilder::threads`]
/// above one.
///
/// An `Engine` is a cheaply cloneable handle (`Arc` internals): clones
/// share the database, the plan cache, the worker pool, the cancellation
/// flag, and the session configuration, so one engine can be hammered from
/// many threads — results are bit-identical at any thread count and any
/// concurrency. [`Engine::session`] carves out per-client scopes with
/// their own cancellation and option defaults.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

/// Shared state behind every [`Engine`] clone, session, and prepared
/// statement.
pub(crate) struct EngineInner {
    db: RwLock<Database>,
    params: CostParams,
    threads: usize,
    morsel_rows: usize,
    /// Engine-wide [`QueryOptions`] defaults, under the session's and the
    /// call's.
    defaults: QueryOptions,
    strategies: StrategyOverrides,
    /// Catalog statistics per table, kept as the builder's
    /// [`stats::StatsMode`] says.
    stats: StatsCatalog,
    /// Where morsels run: inline, or on the engine's worker pool.
    pub(crate) executor: Executor,
    /// Concurrency limiter; `None` admits everything immediately.
    pub(crate) admission: Option<Arc<AdmissionController>>,
    /// Engine-wide memory budget every query's gauge draws from.
    global: Option<Arc<GlobalMemoryPool>>,
    /// Engine-wide cancellation scope, shared with every [`ExecHandle`]
    /// from [`Engine::handle`] (sessions get their own scope).
    cancel: Arc<CancelState>,
    /// Runtime report of the most recent `query` (outcome, fallback,
    /// partial progress) under the fingerprint of the statement that ran —
    /// surfaced through [`Explain::runtime`] of that statement only.
    last_run: Mutex<LastRun>,
    /// Bounded, cost-keyed physical-plan cache shared by the session.
    cache: PlanCache,
    /// Drain/abort bookkeeping behind [`Engine::shutdown`].
    pub(crate) lifecycle: Lifecycle,
    /// The fault plan armed by [`Engine::inject_faults`], if any.
    faults: Arc<FaultSlot>,
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

impl Engine {
    /// Start building an engine session over `db`.
    pub fn builder(db: Database) -> EngineBuilder {
        EngineBuilder::new(db)
    }

    /// [`EngineBuilder::build`]: assemble the shared state.
    pub(crate) fn new(b: EngineBuilder) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                stats: StatsCatalog::new(b.stats_mode, &b.db),
                db: RwLock::new(b.db),
                params: b.params,
                threads: b.threads,
                morsel_rows: b.morsel_rows,
                defaults: b.defaults,
                strategies: b.strategies,
                executor: Executor::new(b.threads),
                admission: b
                    .admission
                    .map(|cfg| Arc::new(AdmissionController::new(cfg))),
                global: b
                    .global_budget
                    .map(|budget| Arc::new(GlobalMemoryPool::new(budget, b.memory_policy))),
                cancel: Arc::new(CancelState::default()),
                last_run: Mutex::new(LastRun::default()),
                cache: PlanCache::new(b.plan_cache_bytes),
                lifecycle: Lifecycle::new(),
                faults: Arc::default(),
            }),
        }
    }

    /// Read access to the underlying database. The guard holds a shared
    /// lock: queries from other engine clones proceed concurrently, but
    /// [`Engine::load_table`] blocks until the guard drops.
    pub fn database(&self) -> impl Deref<Target = Database> + '_ {
        self.inner.read_db()
    }

    /// Load (or reload) a table through [`Database::load_table`], bumping
    /// its generation counter — which invalidates every cached plan that
    /// reads the table. Returns the new generation. In-flight queries keep
    /// reading the snapshot they pinned at execution start.
    pub fn load_table(&self, table: Table) -> u64 {
        let name = table.name().to_string();
        let mut db = self.inner.db.write().unwrap_or_else(|e| e.into_inner());
        let generation = db.load_table(table);
        self.inner
            .stats
            .reload(db.table(&name).expect("just loaded"));
        generation
    }

    /// The session's statistics snapshot for `table`: row count, per-column
    /// min/max/NDV, dictionary cardinalities, and — under
    /// [`stats::StatsMode::Adaptive`] — the most recent observed filter
    /// selectivity. Refreshes lazily when the table's generation counter
    /// moved since collection. Errors with [`PlanError::UnknownTable`] for
    /// unregistered tables; returns `None` under [`stats::StatsMode::Off`].
    pub fn table_stats(&self, table: &str) -> Result<Option<stats::TableStats>, PlanError> {
        let db = self.inner.read_db();
        db.table(table)?;
        Ok(self.inner.stats.for_table(&db, table).map(|s| (*s).clone()))
    }

    /// How this session collects and maintains catalog statistics.
    pub fn stats_mode(&self) -> stats::StatsMode {
        self.inner.stats.mode()
    }

    /// Register a foreign-key index through [`Database::add_fk`] (needed
    /// again after [`Engine::load_table`] replaced either side's table). It
    /// invalidates every cached plan with a join edge: the index changes
    /// which strategies the planner may pick.
    pub fn register_fk(&self, child: &str, fk_col: &str, parent: &str) -> Result<(), PlanError> {
        let mut db = self.inner.db.write().unwrap_or_else(|e| e.into_inner());
        db.add_fk(child, fk_col, parent).map(|_| ())
    }

    /// Threads this session executes with: `1` runs every stage inline,
    /// more runs them on a pool of this many workers beside the querying
    /// thread.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Rows per parallel work unit (always a whole number of tiles).
    pub fn morsel_rows(&self) -> usize {
        self.inner.morsel_rows
    }

    /// A cancellation token for the engine-wide scope. Clone it to other
    /// threads; [`ExecHandle::cancel`] stops in-flight (and future) queries
    /// at their next morsel boundary with [`PlanError::Cancelled`]. Call
    /// [`ExecHandle::reset`] to accept queries again. Cancellation is
    /// sticky *per scope*: this handle governs queries issued directly on
    /// the engine, while each [`Engine::session`] has an independent scope
    /// reachable through [`crate::Session::handle`].
    pub fn handle(&self) -> ExecHandle {
        ExecHandle::new(self.inner.cancel.clone())
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

    /// Live usage of the engine-wide memory pool, when
    /// [`EngineBuilder::global_memory_budget`] configured one.
    pub fn global_memory_stats(&self) -> Option<MemoryPoolStats> {
        self.inner.global.as_ref().map(|g| g.stats())
    }

    /// `(running, queued)` under admission control, when
    /// [`EngineBuilder::admission`] configured it.
    pub fn admission_in_flight(&self) -> Option<(usize, usize)> {
        self.inner.admission.as_ref().map(|a| a.in_flight())
    }

    /// Plan and execute in one step, with hardened-execution supervision.
    ///
    /// Planning consults the session's plan cache first: a repeat of a
    /// cached query (same logical plan, same thread count, unchanged
    /// table generations, no observed drift) skips sampling and strategy
    /// choice entirely. The chosen SWOLE strategy runs first. If it fails a
    /// *runtime* precondition — a worker panic, the memory budget exhausted
    /// by pullup temporaries, or `i64` overflow detected in a masked
    /// aggregate — the query is retried once through the data-centric
    /// row-at-a-time interpreter ([`crate::interp`]), charged against the
    /// same memory gauge. Cancellation, deadline expiry, and admission
    /// rejection are not retried. The outcome (including any fallback) is
    /// recorded and surfaced via [`Explain::runtime`] on the next
    /// [`Engine::explain`] call.
    pub fn query(&self, plan: &LogicalPlan) -> Result<QueryResult, PlanError> {
        self.query_with(plan, &QueryOptions::default())
    }

    /// [`Engine::query`] with per-call option overrides; fields left unset
    /// fall back to the builder's session defaults.
    pub fn query_with(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PlanError> {
        self.root().query_with(plan, opts)
    }

    /// EXPLAIN: the structured decision report of the plan the next
    /// execution would run — the cached plan when that execution would hit
    /// the cache (`plan: cached`), one planned from scratch, as that
    /// execution's would be, when not (`plan: fresh`).
    pub fn explain(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        let db = self.inner.read_db();
        let (physical, cached) = self.inner.next_plan(&db, plan)?;
        Ok(self
            .inner
            .explain_planned(&db, plan, &physical, cached, None))
    }

    /// EXPLAIN ANALYZE: execute the query once at (at least)
    /// [`MetricsLevel::Timings`] and return the decision report of the plan
    /// that ran — after a drift re-plan, the re-planned one — with the
    /// `analyze` section populated from the run: per-operator access
    /// counters, hash-table behaviour, wall times, and the cost model's
    /// prediction re-scored against what execution observed.
    pub fn explain_analyze(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        self.explain_analyze_with(plan, &QueryOptions::default())
    }

    /// [`Engine::explain_analyze`] with per-call option overrides.
    pub fn explain_analyze_with(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOptions,
    ) -> Result<Explain, PlanError> {
        self.root().explain_analyze_with(plan, opts)
    }

    /// Plan a logical query, making every Fig. 2 decision via the cost
    /// models. Always plans from scratch (the cache is consulted by
    /// [`Engine::query`] and prepared statements, not here).
    pub fn plan(&self, plan: &LogicalPlan) -> Result<PhysicalPlan, PlanError> {
        let db = self.inner.read_db();
        self.inner.plan_fresh(&db, plan)
    }

    /// Statically verify the plan this query would compose, at
    /// [`VerifyLevel::Full`] regardless of the session's configured level.
    ///
    /// Plans from scratch (without touching the cache), lowers the composed
    /// physical plan to the verification IR, and runs all four passes:
    /// schema/type soundness, domain discipline of masks/selection
    /// vectors/bitmaps, access-signature consistency with the composed
    /// kernels and the cost model, and resource-accounting coverage. An
    /// ill-formed plan returns [`PlanError::Verification`] with the typed
    /// [`VerifyError`](swole_verify::VerifyError) and its plan-path
    /// provenance.
    pub fn verify_plan(&self, plan: &LogicalPlan) -> Result<VerifyReport, PlanError> {
        let db = self.inner.read_db();
        let physical = self.inner.plan_fresh(&db, plan)?;
        Ok(self.inner.verify(&db, &physical, VerifyLevel::Full)?.1)
    }

    /// EXPLAIN VERIFY: the decision report of [`Engine::explain`] — of the
    /// plan the next execution would run — with the `verification` section
    /// populated by a [`VerifyLevel::Full`] pass over that plan (one summary
    /// line per pass) followed by its admission-certificate bound lines
    /// (peak memory, overflow-safe arithmetic sites, and a per-operator
    /// bound breakdown).
    pub fn explain_verify(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        let db = self.inner.read_db();
        let (physical, cached) = self.inner.next_plan(&db, plan)?;
        let (report, cert) =
            self.inner
                .verify_and_certify(&db, plan, &physical, VerifyLevel::Full)?;
        let mut ex = self
            .inner
            .explain_planned(&db, plan, &physical, cached, None);
        ex.verification = report.lines;
        ex.verification.extend(cert.lines);
        Ok(ex)
    }

    /// EXPLAIN CODE: the decision report of [`Engine::explain`] — of the
    /// plan the next execution would run — with the `code` section holding
    /// each stage's loop as the paper's C-like code, printed from the tile
    /// program, the instance and the join edges the executor dispatches on,
    /// its sums in the mode the plan's certificate picks.
    pub fn explain_code(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        let db = self.inner.read_db();
        let (physical, cached) = self.inner.next_plan(&db, plan)?;
        let cert = self.inner.certificate_for(&db, &physical, None)?;
        let mut ex = self
            .inner
            .explain_planned(&db, plan, &physical, cached, None);
        ex.code = crate::code::render(&physical, cert.overflow_proof);
        Ok(ex)
    }

    /// The admission certificate the engine would enforce for this query:
    /// statically proven upper bounds on peak gauge memory, per-operator
    /// output cardinality and bytes, and which arithmetic sites the value
    /// range analysis proves cannot overflow.
    ///
    /// Plans fresh (without touching the cache) and certifies against the
    /// current statistics snapshot; [`Engine::query`] enforces the same
    /// bound at admission via [`AdmissionError::BudgetInfeasible`].
    pub fn certificate(&self, plan: &LogicalPlan) -> Result<PlanCertificate, PlanError> {
        let db = self.inner.read_db();
        let physical = self.inner.plan_fresh(&db, plan)?;
        let cert = self.inner.certificate_for(&db, &physical, Some(plan))?;
        Ok(cert.as_ref().clone())
    }

    /// Execute a physical plan under panic isolation and the session's
    /// deadline/budget limits.
    ///
    /// Unlike [`Engine::query`] this cannot retry under the data-centric
    /// strategy (the fallback needs the logical plan), so runtime failures
    /// surface directly as typed errors.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<QueryResult, PlanError> {
        self.execute_with(plan, &QueryOptions::default())
    }

    /// [`Engine::execute`] with per-call option overrides.
    pub fn execute_with(
        &self,
        plan: &PhysicalPlan,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PlanError> {
        self.root().execute_with(plan, opts)
    }

    /// Arm `plan` on this engine — its clones, sessions and prepared
    /// statements included — and on no other. Statements admitted while
    /// the returned guard lives carry the plan's state; dropping the guard
    /// disarms it. Arming again replaces the armed plan.
    pub fn inject_faults(&self, plan: FaultPlan) -> FaultGuard {
        self.inner.faults.arm(plan)
    }

    /// The session statements issued on the engine itself run in: the
    /// engine-wide cancellation scope, no defaults beyond the builder's.
    pub(crate) fn root(&self) -> Session {
        Session::over(self.clone(), Arc::clone(&self.inner.cancel))
    }

    /// Shared state accessor for the session layer.
    pub(crate) fn inner(&self) -> &EngineInner {
        &self.inner
    }
}

impl EngineInner {
    /// Poison-proof shared read lock on the database. A worker panic while
    /// holding the lock poisons it, but panics are isolated per query and
    /// never leave the database half-mutated — readers proceed.
    pub(crate) fn read_db(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolve per-call options against the engine's defaults, then the
    /// hard ones.
    fn resolve(&self, opts: &QueryOptions) -> ResolvedOpts {
        let limits = opts.or(&self.defaults);
        ResolvedOpts {
            limits,
            metrics: limits.metrics.unwrap_or(MetricsLevel::Off),
            verify: limits.verify.unwrap_or_else(VerifyLevel::default_for_build),
            priority: limits.priority.unwrap_or_default(),
        }
    }

    /// Admit a certified statement: check its proven bound against the
    /// budget, pass admission control (a no-op without a configured
    /// controller), and open its execution context, registered with `gate`.
    /// The returned permit holds the execution slot until dropped — through
    /// any fallback retry, so a rejected-then-retried query cannot double its
    /// slot usage — and the context's gauge draws from the engine-wide pool
    /// (if any) over the primary attempt *and* any data-centric fallback.
    fn admit(
        &self,
        gate: &QueryGuard<'_>,
        cancel: &Arc<CancelState>,
        r: &ResolvedOpts,
        deadline_at: Option<Instant>,
        cert: &PlanCertificate,
    ) -> Result<(Option<AdmissionPermit>, Arc<ExecCtx>), PlanError> {
        self.check_budget_feasible(r.limits.memory_budget, cert)?;
        let armed = self.faults.current();
        let permit = match &self.admission {
            Some(ctl) => {
                // A scheduled stall sleeps before the controller's lock, and
                // the controller waits on wall time: the deadline moves back
                // by the skew applied so far (not by one applied while the
                // statement waits).
                let mut deadline = deadline_at;
                if let Some(f) = &armed {
                    f.stall_admission();
                    let skew = f.now().saturating_duration_since(Instant::now());
                    deadline = deadline.map(|d| d.checked_sub(skew).unwrap_or_else(Instant::now));
                }
                Some(
                    ctl.admit(r.priority, deadline)
                        .map_err(PlanError::Admission)?,
                )
            }
            None => None,
        };
        let ctx = ExecCtx::new(
            Arc::clone(cancel),
            deadline_at,
            r.limits.memory_budget,
            self.global.clone(),
            r.priority,
        );
        let ctx = ctx.with_stall_window(r.limits.stall_window);
        let ctx = Arc::new(ctx.with_faults(armed));
        gate.attach(&ctx);
        Ok((permit, ctx))
    }

    /// The catalog view planning reads, under the caller's database guard.
    fn planner<'a>(&'a self, db: &'a Database) -> Planner<'a> {
        Planner {
            db,
            stats: &self.stats,
            params: &self.params,
            threads: self.threads,
            strategies: &self.strategies,
        }
    }

    /// Plan from scratch, past the cache and without hints: what every door
    /// other than [`Self::plan_cached`] plans through.
    pub(crate) fn plan_fresh(
        &self,
        db: &Database,
        plan: &LogicalPlan,
    ) -> Result<PhysicalPlan, PlanError> {
        self.planner(db).plan(plan, PlanHints::default())
    }

    /// The plan the next execution of `plan` would run, and whether it
    /// comes from the cache.
    fn next_plan(
        &self,
        db: &Database,
        plan: &LogicalPlan,
    ) -> Result<(Arc<PhysicalPlan>, bool), PlanError> {
        Ok(match self.peek(db, plan) {
            Some(cached) => (cached, true),
            None => (Arc::new(self.plan_fresh(db, plan)?), false),
        })
    }

    fn record_run(&self, fingerprint: u64, lines: Vec<String>, ok: Option<RunOk>) {
        if let Ok(mut last) = self.last_run.lock() {
            *last = LastRun {
                fingerprint: Some(fingerprint),
                lines,
                ok,
            };
        }
    }

    /// The cache fingerprint of `plan` on this engine: its thread count
    /// (it feeds the multi-threaded groupjoin chooser, so plans picked at
    /// different parallelism must not alias), its strategy pins, and the
    /// plan — canonical as built: the SQL binder and
    /// [`crate::QueryBuilder::filter`] put one conjunction in one `Filter`.
    fn fingerprint(&self, plan: &LogicalPlan) -> u64 {
        hash_of(&(self.threads, &self.strategies, plan))
    }

    /// Plan through the session's cache: hits reuse the stored physical
    /// plan; misses plan fresh (honouring a drift hint, if the miss came
    /// from drift invalidation) and insert. A text is looked up by its
    /// bytes first and parsed only when no entry holds it; a text that
    /// fails to parse is never cached.
    ///
    /// Every plan is certified regardless of the session's verify level:
    /// the certificate gates admission, not verification. Certificates are
    /// cached alongside the plan and share its invalidation — a table
    /// generation bump evicts the entry, so a stale certificate can never
    /// outlive the statistics it was derived from.
    fn plan_cached(
        &self,
        db: &Database,
        stmt: Statement<'_>,
        verify: VerifyLevel,
    ) -> Result<Planned, PlanError> {
        let sql = match stmt {
            Statement::Plan(plan) => return self.plan_through(db, plan, None, verify),
            Statement::Text(sql) => sql,
        };
        let hash = hash_of(sql);
        let logical = match self.cache.lookup_text(hash, sql, db) {
            TextLookup::Hit(hit) => return self.reuse(db, hit, verify),
            TextLookup::Invalid(logical) => logical,
            TextLookup::Unknown => Arc::new(crate::prepared::parse_unbound(sql)?),
        };
        self.plan_through(db, &logical, Some((&logical, hash, sql)), verify)
    }

    /// [`Self::plan_cached`] of a logical plan; `text` is the shared plan
    /// and the text (with its hash) it was parsed from.
    fn plan_through(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        text: Option<(&Arc<LogicalPlan>, u64, &str)>,
        verify: VerifyLevel,
    ) -> Result<Planned, PlanError> {
        let fingerprint = self.fingerprint(plan);
        let source = text.map(|(_, hash, sql)| (hash, sql));
        let (drift_hint, invalidated) = match self.cache.lookup(fingerprint, plan, source, db) {
            CacheLookup::Hit(hit) => return self.reuse(db, hit, verify),
            CacheLookup::Miss {
                drift_hint,
                invalidated,
            } => (drift_hint, invalidated),
        };
        let hints = PlanHints {
            selectivity: drift_hint,
        };
        let physical = Arc::new(self.planner(db).plan(plan, hints)?);
        let cert = if verify > VerifyLevel::Off {
            Arc::new(self.verify_and_certify(db, plan, &physical, verify)?.1)
        } else {
            self.certificate_for(db, &physical, Some(plan))?
        };
        let (logical, mut texts) = match (invalidated, text) {
            (Some(dead), _) => dead,
            (None, Some((logical, ..))) => (Arc::clone(logical), Vec::new()),
            (None, None) => (Arc::new(plan.clone()), Vec::new()),
        };
        if let Some((hash, sql)) = source {
            if !texts.iter().any(|(h, t)| *h == hash && **t == *sql) {
                texts.push((hash, sql.into()));
            }
        }
        self.cache.insert(
            fingerprint,
            Arc::clone(&logical),
            Arc::clone(&physical),
            texts,
            db,
            verify,
            Arc::clone(&cert),
        );
        Ok(Planned {
            fingerprint,
            logical,
            physical,
            cert,
        })
    }

    /// A cache hit's plans. The cached verdict travels with the plan:
    /// re-verify only when this call demands a stricter level than the one
    /// the entry was already checked at.
    fn reuse(&self, db: &Database, hit: Hit, verify: VerifyLevel) -> Result<Planned, PlanError> {
        if hit.verified < verify {
            self.verify(db, &hit.plan, verify)?;
            self.cache.note_verified(hit.fingerprint, &hit.plan, verify);
        }
        Ok(Planned {
            fingerprint: hit.fingerprint,
            logical: hit.logical,
            physical: hit.plan,
            cert: hit.certificate,
        })
    }

    /// Plan `plan` into the cache without running it: an explicit `prepare`
    /// of a placeholder-free template, whose first `execute` is then a hit.
    pub(crate) fn plan_now(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOptions,
    ) -> Result<(), PlanError> {
        let db = self.read_db();
        self.plan_cached(&db, Statement::Plan(plan), self.resolve(opts).verify)
            .map(drop)
    }

    /// Lower `physical` and verify it at `level`: the engine's one consumer
    /// of an armed [`swole_runtime::faults::FaultEvent::UnchargedAlloc`],
    /// which makes the program's first allocation site skip its charge.
    fn verify(
        &self,
        db: &Database,
        physical: &PhysicalPlan,
        level: VerifyLevel,
    ) -> Result<(Program, VerifyReport), PlanError> {
        let mut program = crate::verify::program_for(db, physical)?;
        let uncharged = self
            .faults
            .current()
            .is_some_and(|f| f.fire_uncharged_alloc());
        if let Some(alloc) = program.ops.first_mut().and_then(|op| op.allocs.first_mut()) {
            alloc.charged &= !uncharged;
        }
        let report = swole_verify::verify(&program, level).map_err(PlanError::Verification)?;
        Ok((program, report))
    }

    /// Lower `physical` exactly once and run verification at `level` and the
    /// bounds pass over the same program.
    fn verify_and_certify(
        &self,
        db: &Database,
        logical: &LogicalPlan,
        physical: &PhysicalPlan,
        level: VerifyLevel,
    ) -> Result<(VerifyReport, PlanCertificate), PlanError> {
        let (program, report) = self.verify(db, physical, level)?;
        let ctx = self.bounds_ctx_for(db, &program, fallback_bytes(db, logical));
        Ok((report, swole_verify::certify(&program, &ctx)))
    }

    /// Derive the admission certificate for a composed plan. The bound
    /// reserves what a data-centric fallback over `logical` would charge
    /// (`None`: no fallback).
    fn certificate_for(
        &self,
        db: &Database,
        physical: &PhysicalPlan,
        logical: Option<&LogicalPlan>,
    ) -> Result<Arc<PlanCertificate>, PlanError> {
        let program = crate::verify::program_for(db, physical)?;
        let reserve = logical.map_or(0, |plan| fallback_bytes(db, plan));
        let ctx = self.bounds_ctx_for(db, &program, reserve);
        Ok(Arc::new(swole_verify::certify(&program, &ctx)))
    }

    /// Assemble the abstract-interpretation context for the bounds pass:
    /// the most partials a stage of the plan can hold at once (the
    /// executor's [`Executor::max_partials`]), plus a statistics
    /// profile (generation-fresh min/max and exact distinct counts) for
    /// every table the lowered program references. With statistics off the
    /// pass falls back to column-type domains.
    fn bounds_ctx_for(&self, db: &Database, program: &Program, fallback_bytes: u64) -> BoundsCtx {
        let mut ctx = BoundsCtx::without_stats(self.executor.max_partials());
        ctx.fallback_bytes = fallback_bytes;
        for table in &program.tables {
            let Some(s) = self.stats.for_table(db, &table.name) else {
                continue;
            };
            let columns = s
                .columns
                .iter()
                .map(|(name, c)| ColumnProfile {
                    name: name.clone(),
                    min: c.min,
                    max: c.max,
                    ndv: c.ndv_exact.then_some(c.ndv as u64),
                })
                .collect();
            ctx.profiles.push(TableProfile {
                table: table.name.clone(),
                generation: s.generation,
                columns,
            });
        }
        ctx
    }

    /// Enforce the certificate at admission: if the statically proven peak
    /// memory bound cannot fit the effective budget, reject *before* the
    /// query occupies an admission slot or any worker starts. The
    /// effective budget is the tighter of the per-query gauge budget and
    /// the full global pool budget (the full pool, not the momentarily
    /// remaining share — concurrent queries borrow and release, and a plan
    /// that fits the pool is feasible even if it must wait).
    fn check_budget_feasible(
        &self,
        memory_budget: Option<usize>,
        cert: &PlanCertificate,
    ) -> Result<(), PlanError> {
        let global = self.global.as_ref().map(|g| g.stats().budget as u64);
        let per_query = memory_budget.map(|b| b as u64);
        let Some(budget) = per_query.into_iter().chain(global).min() else {
            return Ok(());
        };
        let bound = cert.peak_bytes_bound;
        if bound > budget {
            return Err(PlanError::Admission(AdmissionError::BudgetInfeasible {
                bound,
                budget,
            }));
        }
        Ok(())
    }

    /// One statement, start to finish, under `cancel` and the resolved
    /// `opts`; [`Session`]'s `run` and `explain_analyze_with` are its
    /// only callers, the latter raising the metrics level to at least `floor`.
    /// Hands back the plan it executed with the result: a statement has one
    /// plan, and `EXPLAIN ANALYZE` reports that one.
    pub(crate) fn query_leveled(
        &self,
        db: &Database,
        stmt: Statement<'_>,
        cancel: &Arc<CancelState>,
        opts: &QueryOptions,
        floor: MetricsLevel,
    ) -> Result<(QueryResult, Arc<PhysicalPlan>), PlanError> {
        let r = self.resolve(opts);
        let level = r.metrics.max(floor);
        // Lifecycle gate first: a draining/stopped engine rejects before
        // the query can queue in admission or touch the cache.
        let gate = self.lifecycle.enter()?;
        // The deadline anchors *before* admission: time spent waiting in
        // the queue counts against it, and an expired waiter is rejected
        // without ever holding a slot.
        let deadline_at = r.limits.deadline.map(|d| Instant::now() + d);
        let Planned {
            fingerprint,
            logical,
            physical: planned,
            cert,
        } = self.plan_cached(db, stmt, r.verify)?;
        let (_permit, ctx) = self.admit(&gate, cancel, &r, deadline_at, &cert)?;
        let (plan, physical) = (&*logical, &*planned);
        let run = self.run(&ctx, level, &cert);
        let strategy = &physical.strategy;
        let mut report = Vec::new();
        // Finish the statement under the data-centric interpreter, after
        // `retries` failed attempts; `ok` is the run report's last line.
        let fall_back = |mut report: Vec<String>, ok: &str, retries| {
            match self.fallback_datacentric(db, plan, &ctx, level) {
                Ok((mut res, op)) => {
                    report.push(ok.into());
                    self.record_run(fingerprint, report, None);
                    // A failed attempt's counters are discarded: the
                    // interpreter's single operator *replaces* the
                    // operator list, so rows are never double-counted.
                    let ops = op.into_iter().collect();
                    self.attach_metrics(&mut res, physical, ops, &run, retries);
                    Ok(res)
                }
                Err(fe) => {
                    report.push(format!("data-centric fallback failed: {fe}"));
                    self.record_run(fingerprint, report, None);
                    Err(fe)
                }
            }
        };
        // Consult this plan class's fallback circuit: once it has failed
        // its primary strategy [`BREAKER_OPEN_AFTER`] times in a row, skip
        // the doomed attempt and go straight to the interpreter so the
        // class stops paying double execution cost.
        let breaker = self.cache.breaker_check(fingerprint);
        if breaker == BreakerDecision::Open {
            report.push(format!("{strategy}: skipped, fallback circuit open"));
            return fall_back(report, "data-centric interpreter: ok", 0).map(|res| (res, planned));
        }
        if breaker == BreakerDecision::Probe {
            report.push(format!("{strategy}: probing, fallback circuit half-open"));
        }
        let primary = isolate(|| execute_shape(db, physical, run.opts, run.ctx));
        // Value-range payoff: when the certificate proves every arithmetic
        // site overflow-safe (accumulator magnitude x row count fits i64),
        // a runtime overflow would be a soundness bug in the bounds pass,
        // not a data error — debug builds trap the contradiction here.
        if let Err(e) = &primary {
            debug_assert!(
                !(matches!(e, PlanError::Overflow(_)) && cert.all_sites_overflow_safe()),
                "certificate proved all {} arithmetic site(s) overflow-safe, \
                 yet execution overflowed: {e}",
                cert.arith_sites,
            );
        }
        let (done, total) = ctx.progress();
        match primary {
            Ok((mut res, ops)) => {
                self.cache.breaker_primary_ok(fingerprint);
                let ok = RunOk {
                    plan: Arc::clone(&planned),
                    done,
                    total,
                    charged: ctx.gauge.used(),
                };
                self.record_run(fingerprint, report, Some(ok));
                self.attach_metrics(&mut res, physical, ops, &run, 0);
                // Drift check: feed the measured selectivity back to the
                // cache so a materially mis-estimated entry re-plans.
                if level.counting() {
                    if let Some(obs) = res
                        .metrics
                        .as_ref()
                        .and_then(|m| m.operators.first())
                        .and_then(|o| o.observed_selectivity())
                    {
                        self.cache.observe(fingerprint, &planned, obs);
                        // Adaptive statistics: the measured selectivity also
                        // updates the catalog snapshot of the plan's primary
                        // filtered table, so *future* plans (not just this
                        // cache entry) are costed against reality.
                        if let Some(t) = physical.shape.primary_stats_table() {
                            self.stats.observe_selectivity(t, obs);
                        }
                    }
                }
                Ok((res, planned))
            }
            Err(e) => {
                report.push(format!("{strategy}: {e} ({done}/{total} morsels)"));
                if !e.is_retryable() {
                    self.record_run(fingerprint, report, None);
                    return Err(e);
                }
                if self.cache.breaker_fallback_ran(fingerprint) {
                    report.push("fallback circuit opened for this plan".into());
                }
                fall_back(report, "fell back to data-centric interpreter: ok", 1)
                    .map(|res| (res, planned))
            }
        }
    }

    /// [`Session::execute_with`]'s body: no cache, no fallback.
    pub(crate) fn execute_physical(
        &self,
        db: &Database,
        plan: &PhysicalPlan,
        cancel: &Arc<CancelState>,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PlanError> {
        let r = self.resolve(opts);
        let gate = self.lifecycle.enter()?;
        let deadline_at = r.limits.deadline.map(|d| Instant::now() + d);
        // Direct physical execution has no data-centric fallback, so the
        // certificate carries no fallback reserve.
        let cert = self.certificate_for(db, plan, None)?;
        let (_permit, ctx) = self.admit(&gate, cancel, &r, deadline_at, &cert)?;
        let run = self.run(&ctx, r.metrics, &cert);
        let (mut res, ops) = isolate(|| execute_shape(db, plan, run.opts, run.ctx))?;
        self.attach_metrics(&mut res, plan, ops, &run, 0);
        Ok(res)
    }

    /// Retry a failed query under the data-centric strategy: the
    /// row-at-a-time interpreter, which allocates no pullup temporaries.
    /// [`fallback_bytes`] is charged against the same gauge, so a budgeted
    /// session cannot dodge its budget by failing over.
    fn fallback_datacentric(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        ctx: &ExecCtx,
        level: MetricsLevel,
    ) -> Result<(QueryResult, Option<OpMetrics>), PlanError> {
        ctx.check()?;
        ctx.gauge.try_charge(fallback_bytes(db, plan) as usize)?;
        isolate(|| {
            if level.counting() {
                let t0 = level.timing().then(Instant::now);
                let (res, mut op) = crate::interp::run_metered(db, plan)?;
                op.wall_nanos = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
                Ok((res, Some(op)))
            } else {
                crate::interp::run(db, plan).map(|res| (res, None))
            }
        })
    }

    /// Start the clock on a statement admitted under `cert`, metering at
    /// `level` on this engine's executor.
    fn run<'a>(
        &'a self,
        ctx: &'a Arc<ExecCtx>,
        level: MetricsLevel,
        cert: &'a PlanCertificate,
    ) -> Run<'a> {
        let opts = ExecOpts {
            executor: &self.executor,
            morsel_rows: self.morsel_rows,
            level,
            overflow: cert.overflow_proof,
        };
        Run {
            opts,
            ctx,
            t0: level.timing().then(Instant::now),
            cert,
        }
    }

    /// Assemble and attach the [`QueryMetrics`] snapshot for a finished
    /// execution (no-op below [`MetricsLevel::Counters`]).
    fn attach_metrics(
        &self,
        res: &mut QueryResult,
        physical: &PhysicalPlan,
        operators: Vec<OpMetrics>,
        run: &Run<'_>,
        retries: u32,
    ) {
        let level = run.opts.level;
        if !level.counting() {
            return;
        }
        let (predicted_cost, observed_cost) =
            cost_comparison(&self.params, self.threads, physical, &operators);
        res.metrics = Some(QueryMetrics {
            level,
            estimated_selectivity: physical.estimates.selectivity,
            operators,
            retries,
            bytes_charged: run.ctx.gauge.used() as u64,
            bytes_bound: Some(run.cert.peak_bytes_bound),
            elapsed_nanos: run.t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
            predicted_cost,
            observed_cost,
        });
    }

    /// The plan the cache would serve `plan` from, if it holds a valid one
    /// (a probe that perturbs neither use order nor counters).
    pub(crate) fn peek(&self, db: &Database, plan: &LogicalPlan) -> Option<Arc<PhysicalPlan>> {
        self.cache.peek(self.fingerprint(plan), plan, db)
    }

    /// The EXPLAIN report of `physical`; `cached` says whether the next
    /// execution would take its plan from the cache. With the metrics of the
    /// run that executed `physical`, `analyze`, it is that run's EXPLAIN
    /// ANALYZE.
    pub(crate) fn explain_planned(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        physical: &PhysicalPlan,
        cached: bool,
        analyze: Option<QueryMetrics>,
    ) -> Explain {
        let (join_order, join_tree) = join_tree(db, physical);
        // The engine keeps one run report; it is this statement's only if
        // this statement was the last to run.
        let fingerprint = Some(self.fingerprint(plan));
        let runtime = match self.last_run.lock() {
            Ok(last) if last.fingerprint == fingerprint => {
                let ok = last.ok.as_ref().map(RunOk::line);
                last.lines.iter().cloned().chain(ok).collect()
            }
            _ => Vec::new(),
        };
        let mut ex = Explain {
            shape: physical.describe(),
            strategy: physical.strategy.clone(),
            threads: self.threads,
            morsel_rows: self.morsel_rows,
            plan_source: Some(if cached { "cached" } else { "fresh" }.to_string()),
            cost_terms: physical.cost_terms.clone(),
            decisions: physical.decisions.clone(),
            runtime,
            analyze,
            join_order,
            join_tree,
            verification: Vec::new(),
            code: Vec::new(),
        };
        ex.fill_join_observed();
        ex
    }
}

/// What the data-centric fallback charges: 8 bytes per base-table row
/// scanned, the row-id vector a window retry sorts (an aggregate retry
/// streams its rows and builds none, but is charged the same). A
/// certificate's peak bound reserves it: gauge charges are held to
/// completion, so a failed primary can coexist with it.
fn fallback_bytes(db: &Database, plan: &LogicalPlan) -> u64 {
    let mut rows = 0usize;
    plan.visit(&mut |node| {
        if let LogicalPlan::Scan { table } = node {
            rows = rows.saturating_add(db.table(table).map(|t| t.len()).unwrap_or(0));
        }
    });
    rows.saturating_mul(8) as u64
}
