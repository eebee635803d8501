//! The engine: a statement's lifecycle and nothing else.
//!
//! [`Engine`] owns what outlives a statement — the database, the statistics,
//! the plan cache, the executor, admission and the memory pool. A statement
//! is one list of phases, each a value made from the one before: text or
//! plan → **plan** ([`Planned`]) → **certify** ([`Certified`]) → **admit**
//! ([`Admitted`]) → **run** ([`Ran`]: the primary attempt, or the
//! data-centric retry behind the fallback breaker) → **record** (run
//! report, metrics, drift observation). Every door is a prefix of that list
//! (DESIGN.md § 9 has the table): `plan`, `verify_plan` and `certificate`
//! here, the EXPLAINs in [`crate::explain`], `prepare` in
//! [`crate::prepared`]; only `query` and `execute` run every phase. The
//! rest has its own home: planning is [`crate::planner`], running a planned
//! shape [`crate::exec`], configuration [`crate::builder`], the catalog
//! [`crate::catalog`], the drain [`crate::lifecycle`], and what a statement
//! hands back [`crate::result`].

use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use crate::builder::{EngineBuilder, StrategyOverrides};
pub(crate) use crate::cache::Planned;
use crate::cache::{hash_of, BreakerDecision, CacheLookup, PlanCache, TextLookup};
use crate::catalog::Database;
use crate::error::PlanError;
use crate::exec::{execute_shape, ExecOpts};
use crate::explain::{cost_comparison, LastRun, RunOk};
use crate::interp;
use crate::lifecycle::{Lifecycle, QueryGuard};
use crate::logical::LogicalPlan;
use crate::metrics::{MetricsLevel, OpMetrics, QueryMetrics};
use crate::physical::PhysicalPlan;
use crate::planner::{PlanHints, Planner};
use crate::result::QueryResult;
use crate::session::{QueryOptions, Session};
use crate::stats::StatsCatalog;
use swole_cost::CostParams;
use swole_runtime::faults::{FaultGuard, FaultPlan, FaultSlot};
use swole_runtime::{
    AdmissionController, AdmissionError, AdmissionPermit, CancelState, ExecCtx, Executor,
    GlobalMemoryPool, Reservation,
};
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

/// What a statement is run from: a logical plan, or an ad-hoc SQL text run
/// without parameters, which a warm cache answers without parsing it.
#[derive(Clone, Copy)]
pub(crate) enum Statement<'a> {
    Plan(&'a LogicalPlan),
    Text(&'a str),
}

/// The plan phase outside a run (the run's own is [`EngineInner::plan`]).
#[derive(Clone, Copy)]
pub(crate) enum Mode {
    /// The plan the next run would execute, by a probe that counts and
    /// inserts nothing: the cached plan, or the one that run's miss would
    /// make — with the drift hint of a stale entry.
    Next,
    /// A plan made past the cache, with no hint.
    Fresh,
}

/// The certify phase's value: a plan lowered once, its verdict (empty at
/// [`VerifyLevel::Off`]) and, on demand, its certificate — which
/// [`Engine::verify_plan`], stopping at the verdict, never derives.
pub(crate) struct Certified<'a> {
    engine: &'a EngineInner,
    db: &'a Database,
    program: Program,
    pub(crate) report: VerifyReport,
}

/// The admit phase's value: a statement inside the lifecycle gate, holding
/// its admission slot, its memory reservation and its execution context —
/// through any retry, so a retry neither doubles the slot nor escapes the
/// gauge. `opts` meters at the statement's level and runs the kernels the
/// certificate licenses.
struct Admitted<'a> {
    /// The certified peak held in the global pool, returned first.
    _reservation: Option<Reservation>,
    _gate: QueryGuard<'a>,
    _permit: Option<AdmissionPermit>,
    ctx: Arc<ExecCtx>,
    opts: ExecOpts<'a>,
    t0: Option<Instant>,
    cert: Arc<PlanCertificate>,
}

/// The run phase's value for a statement with a logical plan.
enum Ran {
    /// The primary attempt succeeded: its result and operators.
    Primary(QueryResult, Vec<OpMetrics>),
    /// The data-centric interpreter finished the statement after `retries`
    /// failed primary attempts (none when the breaker skipped it).
    Retried(QueryResult, OpMetrics, u32),
    /// Neither did: the error the statement fails with.
    Failed(PlanError),
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
    pub(crate) inner: Arc<EngineInner>,
}

/// Shared state behind every [`Engine`] clone, session, and prepared
/// statement.
pub(crate) struct EngineInner {
    pub(crate) db: RwLock<Database>,
    params: CostParams,
    pub(crate) threads: usize,
    pub(crate) morsel_rows: usize,
    /// Engine-wide [`QueryOptions`] defaults, under the session's and the
    /// call's.
    defaults: QueryOptions,
    strategies: StrategyOverrides,
    /// Catalog statistics per table, kept as the builder's
    /// [`crate::StatsMode`] says.
    pub(crate) stats: StatsCatalog,
    /// Where morsels run: inline, or on the engine's worker pool.
    pub(crate) executor: Executor,
    /// Concurrency limiter; `None` admits everything immediately.
    pub(crate) admission: Option<Arc<AdmissionController>>,
    /// Engine-wide memory budget every query reserves its certified peak
    /// from.
    pub(crate) global: Option<Arc<GlobalMemoryPool>>,
    /// Engine-wide cancellation scope, shared with every [`swole_runtime::ExecHandle`]
    /// from [`Engine::handle`] (sessions get their own scope).
    pub(crate) cancel: Arc<CancelState>,
    /// Runtime report of the most recent `query` (outcome, fallback,
    /// partial progress) under the fingerprint of the statement that ran —
    /// surfaced through [`crate::Explain::runtime`] of that statement only.
    pub(crate) last_run: Mutex<LastRun>,
    /// Bounded, cost-keyed physical-plan cache shared by the session.
    pub(crate) cache: PlanCache,
    /// Drain/abort bookkeeping behind [`Engine::shutdown`].
    pub(crate) lifecycle: Lifecycle,
    /// The fault plan armed by [`Engine::inject_faults`], if any.
    faults: Arc<FaultSlot>,
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
                    .map(|bytes| Arc::new(GlobalMemoryPool::new(bytes))),
                cancel: Arc::new(CancelState::default()),
                last_run: Mutex::new(LastRun::default()),
                cache: PlanCache::new(b.plan_cache_bytes),
                lifecycle: Lifecycle::new(),
                faults: Arc::default(),
            }),
        }
    }

    /// Plan and execute in one step, with hardened-execution supervision.
    ///
    /// Planning consults the session's plan cache first: a repeat of a
    /// cached query (same logical plan, same thread count, unchanged
    /// table generations, no observed drift) skips sampling and strategy
    /// choice entirely. The chosen SWOLE strategy runs first. If it fails a
    /// *runtime* precondition — a worker panic (a division by zero on a
    /// lane a masked strategy evaluates anyway) or a failed memory charge —
    /// the query is retried
    /// once through the data-centric block-at-a-time interpreter
    /// ([`crate::interp`]), in the same reservation once the failed
    /// attempt's charges are dropped. Cancellation, deadline expiry, and
    /// admission rejection are not retried. The outcome (including any fallback) is
    /// recorded and surfaced via [`crate::Explain::runtime`] on the next
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

    /// Plan a logical query, making every Fig. 2 decision via the cost
    /// models. Always plans from scratch (the cache is consulted by
    /// [`Engine::query`] and prepared statements, not here).
    pub fn plan(&self, plan: &LogicalPlan) -> Result<PhysicalPlan, PlanError> {
        let db = self.inner.read_db();
        let (physical, _) = self.inner.plan_next(&db, plan, Mode::Fresh)?;
        Ok(Arc::unwrap_or_clone(physical))
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
        let (physical, _) = self.inner.plan_next(&db, plan, Mode::Fresh)?;
        Ok(self
            .inner
            .certify(&db, &physical, VerifyLevel::Full)?
            .report)
    }

    /// The admission certificate of a plan made fresh for this query:
    /// statically proven upper bounds on peak gauge memory, per-operator
    /// output cardinality and bytes, and whether the value range analysis
    /// licenses `i32` tile sums.
    ///
    /// Plans fresh (without touching the cache) and certifies against the
    /// current statistics snapshot. That plan is the one a cold
    /// [`Engine::query`] runs and admits against this bound (rejecting with
    /// [`AdmissionError::BudgetInfeasible`] when it exceeds the budget) —
    /// but not necessarily the cached plan a warm one runs: a drift re-plan
    /// or an [`crate::StatsMode::Adaptive`] statistics update can make the
    /// fresh plan differ from it. [`Engine::explain_verify`] shows the bound
    /// of the plan the next execution runs.
    pub fn certificate(&self, plan: &LogicalPlan) -> Result<PlanCertificate, PlanError> {
        let db = self.inner.read_db();
        let (physical, _) = self.inner.plan_next(&db, plan, Mode::Fresh)?;
        let certified = self.inner.certify(&db, &physical, VerifyLevel::Off)?;
        Ok(certified.certificate(Some(plan)))
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
}

impl EngineInner {
    /// Poison-proof shared read lock on the database. A worker panic while
    /// holding the lock poisons it, but panics are isolated per query and
    /// never leave the database half-mutated — readers proceed.
    pub(crate) fn read_db(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The verify level of a statement run with `opts` (merged over the
    /// engine's defaults, then the build's).
    pub(crate) fn verify_level(&self, opts: &QueryOptions) -> VerifyLevel {
        let verify = opts.or(&self.defaults).verify;
        verify.unwrap_or_else(VerifyLevel::default_for_build)
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

    /// The cache fingerprint of `plan` on this engine: its thread count
    /// (it feeds the multi-threaded groupjoin chooser, so plans picked at
    /// different parallelism must not alias), its strategy pins, and the
    /// plan — canonical as built: the SQL binder and
    /// [`crate::QueryBuilder::filter`] put one conjunction in one `Filter`.
    pub(crate) fn fingerprint(&self, plan: &LogicalPlan) -> u64 {
        hash_of(&(self.threads, &self.strategies, plan))
    }

    /// The run mode of the plan phase (a run's, and `prepare`'s). A text is
    /// looked up by its bytes and parsed only when no entry holds it (a
    /// text that fails to parse is never cached); a plan, by fingerprint. A
    /// hit is verified again only when `verify` is stricter than the level
    /// it passed. A miss plans — with the observed selectivity, after a
    /// drift invalidation — is certified at `verify` with the fallback's
    /// reserve (the certificate gates admission at every verify level), and
    /// is cached with the texts that reached it, so a generation bump
    /// evicts plan and certificate together.
    pub(crate) fn plan(
        &self,
        db: &Database,
        stmt: Statement<'_>,
        verify: VerifyLevel,
    ) -> Result<Planned, PlanError> {
        let reverify = |hit: Planned| {
            if hit.verified < verify {
                self.certify(db, &hit.physical, verify)?;
                self.cache.note_verified(&hit, verify);
            }
            Ok(hit)
        };
        // A text's plan, with the text and its hash.
        let parsed: Arc<LogicalPlan>;
        let (plan, text) = match stmt {
            Statement::Plan(plan) => (plan, None),
            Statement::Text(sql) => {
                let hash = hash_of(sql);
                parsed = match self.cache.lookup_text(hash, sql, db) {
                    TextLookup::Hit(hit) => return reverify(hit),
                    TextLookup::Invalid(logical) => logical,
                    TextLookup::Unknown => Arc::new(crate::prepared::parse_unbound(sql)?),
                };
                (&*parsed, Some((&parsed, hash, sql)))
            }
        };
        let fingerprint = self.fingerprint(plan);
        let source = text.map(|(_, hash, sql)| (hash, sql));
        let (selectivity, invalidated) = match self.cache.lookup(fingerprint, plan, source, db) {
            CacheLookup::Hit(hit) => return reverify(hit),
            CacheLookup::Miss {
                drift_hint,
                invalidated,
            } => (drift_hint, invalidated),
        };
        let physical = Arc::new(self.planner(db).plan(plan, PlanHints { selectivity })?);
        let certified = self.certify(db, &physical, verify)?;
        let cert = Arc::new(certified.certificate(Some(plan)));
        let (logical, mut texts) = invalidated.unwrap_or_else(|| {
            let logical = text.map_or_else(|| Arc::new(plan.clone()), |(l, ..)| Arc::clone(l));
            (logical, Vec::new())
        });
        if let Some((hash, sql)) = source {
            if !texts.iter().any(|(h, t)| *h == hash && **t == *sql) {
                texts.push((hash, sql.into()));
            }
        }
        let planned = Planned {
            fingerprint,
            logical,
            physical,
            verified: verify,
            cert,
        };
        self.cache.insert(&planned, texts, db);
        Ok(planned)
    }

    /// The plan phase outside a run, in `mode`; with whether the plan is
    /// the cache's.
    pub(crate) fn plan_next(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        mode: Mode,
    ) -> Result<(Arc<PhysicalPlan>, bool), PlanError> {
        let mut hints = PlanHints::default();
        if let Mode::Next = mode {
            match self.cache.peek(self.fingerprint(plan), plan, db) {
                CacheLookup::Hit(hit) => return Ok((hit.physical, true)),
                CacheLookup::Miss { drift_hint, .. } => hints.selectivity = drift_hint,
            }
        }
        Ok((Arc::new(self.planner(db).plan(plan, hints)?), false))
    }

    /// The certify phase: lower `physical` once and verify it at `level`
    /// (not at all at [`VerifyLevel::Off`]). Verifying consumes an armed
    /// [`swole_runtime::faults::FaultEvent::UnchargedAlloc`], which makes
    /// the program's first allocation site skip its charge.
    pub(crate) fn certify<'a>(
        &'a self,
        db: &'a Database,
        physical: &PhysicalPlan,
        level: VerifyLevel,
    ) -> Result<Certified<'a>, PlanError> {
        let mut program = crate::verify::program_for(db, physical)?;
        if level > VerifyLevel::Off {
            let armed = self.faults.current();
            let uncharged = armed.is_some_and(|f| f.fire_uncharged_alloc());
            if let Some(alloc) = program.ops.first_mut().and_then(|op| op.allocs.first_mut()) {
                alloc.charged &= !uncharged;
            }
        }
        let report = swole_verify::verify(&program, level).map_err(PlanError::Verification)?;
        Ok(Certified {
            engine: self,
            db,
            program,
            report,
        })
    }

    /// Gate → plan and certify → admit: the prefix of every door that runs.
    /// The gate comes first, so a draining engine rejects before the cache
    /// or the queue is touched; then the deadline anchors, so planning and
    /// queueing count against it. `certified` is the door's plan and
    /// certify phases, at the statement's verify level. A proven bound over
    /// the tighter of the per-query budget and the whole global pool (a
    /// plan that fits the pool is feasible, if it must wait) is rejected
    /// before the statement takes a slot; then admission control (a no-op
    /// without a controller); then the context, its gauge limited to the
    /// bound, registered with the gate and metering at `floor` or above;
    /// and last the bound's reservation from the global pool (none without
    /// one), which waits in arrival order until it fits.
    fn admit<'a, P>(
        &'a self,
        cancel: &Arc<CancelState>,
        opts: &QueryOptions,
        floor: MetricsLevel,
        certified: impl FnOnce(VerifyLevel) -> Result<(P, Arc<PlanCertificate>), PlanError>,
    ) -> Result<(P, Admitted<'a>), PlanError> {
        let o = opts.or(&self.defaults);
        let gate = self.lifecycle.enter()?;
        let deadline_at = o.deadline.map(|d| Instant::now() + d);
        let (planned, cert) = certified(self.verify_level(opts))?;
        let global = self.global.as_ref().map(|g| g.stats().budget as u64);
        let budget = o.memory_budget.map(|b| b as u64).into_iter().chain(global);
        let bound = cert.peak_bytes_bound;
        if let Some(budget) = budget.min().filter(|&b| bound > b) {
            let infeasible = AdmissionError::BudgetInfeasible { bound, budget };
            return Err(PlanError::Admission(infeasible));
        }
        let priority = o.priority.unwrap_or_default();
        let armed = self.faults.current();
        // Both waits below are on wall time: the deadline moves back by the
        // skew applied so far (not by one applied while the statement
        // waits).
        let wall_deadline = || match &armed {
            Some(f) => {
                let skew = f.now().saturating_duration_since(Instant::now());
                deadline_at.map(|d| d.checked_sub(skew).unwrap_or_else(Instant::now))
            }
            None => deadline_at,
        };
        let permit = (self.admission.as_ref())
            .map(|ctl| {
                // A scheduled stall sleeps before the controller's lock.
                if let Some(f) = &armed {
                    f.stall_admission();
                }
                ctl.admit(priority, wall_deadline())
            })
            .transpose()
            .map_err(PlanError::Admission)?;
        let limit = usize::try_from(bound).unwrap_or(usize::MAX);
        let ctx = ExecCtx::new(Arc::clone(cancel), deadline_at, Some(limit), priority)
            .with_stall_window(o.stall_window)
            .with_faults(armed.clone());
        let ctx = Arc::new(ctx);
        gate.attach(&ctx);
        let reservation = (self.global.as_ref())
            .map(|pool| pool.reserve(limit, wall_deadline()))
            .transpose()
            .map_err(PlanError::Admission)?;
        let level = o.metrics.unwrap_or(MetricsLevel::Off).max(floor);
        let opts = ExecOpts {
            executor: &self.executor,
            morsel_rows: self.morsel_rows,
            level,
            overflow: cert.overflow_proof,
        };
        let admitted = Admitted {
            _reservation: reservation,
            _gate: gate,
            _permit: permit,
            ctx,
            opts,
            t0: level.timing().then(Instant::now),
            cert,
        };
        Ok((planned, admitted))
    }

    /// One statement, every phase, under `cancel` and `opts`; [`Session`]'s
    /// `run` and `explain_analyze_with` are its only callers, the latter
    /// raising the metrics level to at least `floor`. Hands back the plan it
    /// executed with the result: a statement has one plan, and `EXPLAIN
    /// ANALYZE` reports that one.
    pub(crate) fn query_leveled(
        &self,
        db: &Database,
        stmt: Statement<'_>,
        cancel: &Arc<CancelState>,
        opts: &QueryOptions,
        floor: MetricsLevel,
    ) -> Result<(QueryResult, Planned), PlanError> {
        let (planned, admitted) = self.admit(cancel, opts, floor, |verify| {
            let planned = self.plan(db, stmt, verify)?;
            let cert = Arc::clone(&planned.cert);
            Ok((planned, cert))
        })?;
        let (report, ran) = self.run(db, &planned, &admitted);
        let res = self.record(&planned, &admitted, report, ran)?;
        Ok((res, planned))
    }

    /// [`Session::execute_with`]'s body: the shared prefix from a physical
    /// plan, certified with no fallback reserve since nothing retries it,
    /// then the primary attempt and its metrics — no cache, no retry, no
    /// run report.
    pub(crate) fn execute_physical(
        &self,
        db: &Database,
        plan: &PhysicalPlan,
        cancel: &Arc<CancelState>,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PlanError> {
        let ((), admitted) = self.admit(cancel, opts, MetricsLevel::Off, |_| {
            let cert = self.certify(db, plan, VerifyLevel::Off)?.certificate(None);
            Ok(((), Arc::new(cert)))
        })?;
        let (mut res, ops) = self.primary(db, plan, &admitted)?;
        self.attach_metrics(&mut res, plan, ops, &admitted, 0);
        Ok(res)
    }

    /// The primary attempt: `physical` on the admitted context, under panic
    /// isolation.
    fn primary(
        &self,
        db: &Database,
        physical: &PhysicalPlan,
        a: &Admitted<'_>,
    ) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
        let primary = isolate(|| execute_shape(db, physical, a.opts, &a.ctx));
        // A charge past the certified peak would be a soundness bug in the
        // bounds pass, not a data error — debug builds trap the
        // contradiction here (a charge a fault fails is not counted).
        if let Err(e) = &primary {
            debug_assert!(
                a.ctx.gauge.used() as u64 <= a.cert.peak_bytes_bound,
                "certificate bounded the query at {} B, yet execution charged {} B: {e}",
                a.cert.peak_bytes_bound,
                a.ctx.gauge.used(),
            );
        }
        primary
    }

    /// The run phase, and the report lines it leaves. Once this plan class
    /// has failed its primary strategy [`crate::cache::BREAKER_OPEN_AFTER`]
    /// times in a row, its fallback circuit skips the doomed attempt for the
    /// retry, so the class stops paying double execution cost; a primary
    /// that fails retryably is retried once.
    fn run(&self, db: &Database, planned: &Planned, a: &Admitted<'_>) -> (Vec<String>, Ran) {
        let (fingerprint, strategy) = (planned.fingerprint, &planned.physical.strategy);
        let mut report = Vec::new();
        let retries = match self.cache.breaker_check(fingerprint) {
            BreakerDecision::Open => {
                report.push(format!("{strategy}: skipped, fallback circuit open"));
                0
            }
            breaker => {
                if breaker == BreakerDecision::Probe {
                    report.push(format!("{strategy}: probing, fallback circuit half-open"));
                }
                let e = match self.primary(db, &planned.physical, a) {
                    Ok((res, ops)) => return (report, Ran::Primary(res, ops)),
                    Err(e) => e,
                };
                let (done, total) = a.ctx.progress();
                report.push(format!("{strategy}: {e} ({done}/{total} morsels)"));
                if !e.is_retryable() {
                    return (report, Ran::Failed(e));
                }
                if self.cache.breaker_fallback_ran(fingerprint) {
                    report.push("fallback circuit opened for this plan".into());
                }
                1
            }
        };
        let ran = self.retry(db, &planned.logical, a, retries, &mut report);
        (report, ran)
    }

    /// The data-centric retry, after `retries` failed attempts: the
    /// block-at-a-time interpreter, which allocates no pullup temporaries.
    /// The failed attempt's structures are gone, so its charges are dropped
    /// and the certificate's `fallback_bytes` charged in their place.
    fn retry(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        a: &Admitted<'_>,
        retries: u32,
        report: &mut Vec<String>,
    ) -> Ran {
        let interpret = || -> Result<_, PlanError> {
            a.ctx.check()?;
            a.ctx.gauge.restart();
            let reserve = usize::try_from(a.cert.fallback_bytes).unwrap_or(usize::MAX);
            a.ctx.gauge.try_charge(reserve)?;
            let t0 = a.opts.level.timing().then(Instant::now);
            let (res, mut op) = isolate(|| interp::run_metered(db, plan))?;
            op.wall_nanos = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
            Ok((res, op))
        };
        match interpret() {
            Ok((res, op)) => {
                report.push(match retries {
                    0 => "data-centric interpreter: ok".into(),
                    _ => "fell back to data-centric interpreter: ok".into(),
                });
                Ran::Retried(res, op, retries)
            }
            Err(e) => {
                report.push(format!("data-centric fallback failed: {e}"));
                Ran::Failed(e)
            }
        }
    }

    /// The record phase: the run report, kept under the statement's
    /// fingerprint; the metrics; and, after a metered primary run, the
    /// observed selectivity — fed to the cache, so a materially
    /// mis-estimated entry re-plans, and (under adaptive statistics) to the
    /// snapshot of the plan's primary filtered table, so *future* plans are
    /// costed against it too.
    fn record(
        &self,
        planned: &Planned,
        a: &Admitted<'_>,
        lines: Vec<String>,
        ran: Ran,
    ) -> Result<QueryResult, PlanError> {
        let (fingerprint, physical) = (planned.fingerprint, &planned.physical);
        let mut ok = None;
        let outcome = match ran {
            Ran::Primary(res, ops) => {
                self.cache.breaker_primary_ok(fingerprint);
                let (done, total) = a.ctx.progress();
                let charged = a.ctx.gauge.peak();
                let plan = Arc::clone(physical);
                ok = Some(RunOk {
                    plan,
                    done,
                    total,
                    charged,
                });
                Ok((res, ops, 0))
            }
            // A failed attempt's counters are discarded: the interpreter's
            // single operator *replaces* the operator list, so rows are
            // never double-counted.
            Ran::Retried(res, op, retries) => Ok((res, vec![op], retries)),
            Ran::Failed(e) => Err(e),
        };
        let primary = ok.is_some();
        if let Ok(mut last) = self.last_run.lock() {
            *last = LastRun {
                fingerprint: Some(fingerprint),
                lines,
                ok,
            };
        }
        let (mut res, ops, retries) = outcome?;
        self.attach_metrics(&mut res, physical, ops, a, retries);
        let observed = (res.metrics.as_ref())
            .filter(|_| primary)
            .and_then(|m| m.operators.first())
            .and_then(|o| o.observed_selectivity());
        if let Some(obs) = observed {
            self.cache.observe(fingerprint, physical, obs);
            if let Some(t) = physical.shape.primary_stats_table() {
                self.stats.observe_selectivity(t, obs);
            }
        }
        Ok(res)
    }

    /// Attach the [`QueryMetrics`] of a finished execution (none below
    /// [`MetricsLevel::Counters`]).
    fn attach_metrics(
        &self,
        res: &mut QueryResult,
        physical: &PhysicalPlan,
        operators: Vec<OpMetrics>,
        a: &Admitted<'_>,
        retries: u32,
    ) {
        let level = a.opts.level;
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
            bytes_charged: a.ctx.gauge.peak() as u64,
            bytes_bound: Some(a.cert.peak_bytes_bound),
            elapsed_nanos: a.t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
            predicted_cost,
            observed_cost,
        });
    }
}

impl Certified<'_> {
    /// The admission certificate of the certified program, its bound
    /// reserving what a data-centric retry of `retried` holds
    /// ([`interp::fallback_bytes`]; `None`: nothing retries the plan). The
    /// bounds pass reads the most partials a stage of many morsels can hold
    /// at once (the executor's [`Executor::max_partials`]), the morsel size
    /// that says how many a stage has, and a statistics profile
    /// (generation-fresh min/max and exact distinct counts) of every table
    /// the program references; with statistics off it falls back to
    /// column-type domains.
    pub(crate) fn certificate(&self, retried: Option<&LogicalPlan>) -> PlanCertificate {
        let engine = self.engine;
        let mut ctx = BoundsCtx::without_stats(engine.executor.max_partials(usize::MAX));
        ctx.morsel_rows = engine.morsel_rows;
        for table in &self.program.tables {
            let Some(s) = engine.stats.for_table(self.db, &table.name) else {
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
        ctx.fallback_bytes = retried.map_or(0, |plan| interp::fallback_bytes(self.db, plan, &ctx));
        swole_verify::certify(&self.program, &ctx)
    }
}
