//! Sessions: per-client scopes over one shared [`Engine`], and the one path
//! a statement takes into it. See [`Session`].

use std::sync::Arc;
use std::time::Duration;

use crate::cache::CacheLookup;
use crate::engine::{Engine, Statement};
use crate::error::PlanError;
use crate::explain::Explain;
use crate::logical::LogicalPlan;
use crate::metrics::MetricsLevel;
use crate::physical::PhysicalPlan;
use crate::result::QueryResult;
use swole_runtime::{CancelState, ExecHandle, Priority};
use swole_verify::VerifyLevel;

/// Per-query execution options. Every field is optional: `None` falls back
/// to the session's defaults ([`Session::with_defaults`]), which in turn
/// fall back to the engine builder's settings. Construct with the builder
/// methods:
///
/// ```
/// # use std::time::Duration;
/// # use swole_plan::{MetricsLevel, QueryOptions};
/// let opts = QueryOptions::new()
///     .deadline(Duration::from_millis(50))
///     .metrics(MetricsLevel::Counters);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Wall-clock deadline for this query, measured from submission —
    /// queue time under admission control counts against it.
    pub deadline: Option<Duration>,
    /// Per-query memory budget in bytes: a plan whose certified peak
    /// exceeds it is rejected at admission.
    pub memory_budget: Option<usize>,
    /// Metrics collection level for this query.
    pub metrics: Option<MetricsLevel>,
    /// Static-verification level for this query's plan.
    pub verify: Option<VerifyLevel>,
    /// Admission and scheduling priority class for this query.
    pub priority: Option<Priority>,
    /// Watchdog window for this query: if no morsel completes within it,
    /// the query fails with [`PlanError::Stalled`] instead of wedging an
    /// execution slot.
    pub stall_window: Option<Duration>,
}

impl QueryOptions {
    /// Options with every field unset (all session defaults apply).
    pub fn new() -> QueryOptions {
        QueryOptions::default()
    }

    /// Set the wall-clock deadline.
    pub fn deadline(mut self, deadline: Duration) -> QueryOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Set the per-query memory budget in bytes.
    pub fn memory_budget(mut self, bytes: usize) -> QueryOptions {
        self.memory_budget = Some(bytes);
        self
    }

    /// Set the metrics collection level.
    pub fn metrics(mut self, level: MetricsLevel) -> QueryOptions {
        self.metrics = Some(level);
        self
    }

    /// Set the static-verification level.
    pub fn verify(mut self, level: VerifyLevel) -> QueryOptions {
        self.verify = Some(level);
        self
    }

    /// Set the priority class.
    pub fn priority(mut self, priority: Priority) -> QueryOptions {
        self.priority = Some(priority);
        self
    }

    /// Set the watchdog stall window.
    pub fn stall_window(mut self, window: Duration) -> QueryOptions {
        self.stall_window = Some(window);
        self
    }

    /// Field-wise fallback: every field set in `self` wins, every unset
    /// field takes `base`'s value. Used to resolve per-call options
    /// against session defaults.
    pub fn or(self, base: &QueryOptions) -> QueryOptions {
        QueryOptions {
            deadline: self.deadline.or(base.deadline),
            memory_budget: self.memory_budget.or(base.memory_budget),
            metrics: self.metrics.or(base.metrics),
            verify: self.verify.or(base.verify),
            priority: self.priority.or(base.priority),
            stall_window: self.stall_window.or(base.stall_window),
        }
    }
}

/// A scope over a shared [`Engine`]: its own sticky cancellation flag
/// (cancelling one client never touches another) and its own
/// [`QueryOptions`] defaults, while the database, plan cache, worker pool,
/// global memory budget and admission controller stay shared engine-wide.
///
/// A session is also the only thing that runs a statement. What is issued
/// on the [`Engine`] itself runs on its root session — the engine-wide
/// scope, no defaults — and a prepared or bound statement is a session
/// plus a plan.
///
/// Sessions are cheap to create (one allocation) and cheap to clone;
/// clones share the *same* scope. Create one per client/connection:
///
/// ```
/// # use swole_plan::{Database, Engine};
/// let engine = Engine::builder(Database::new()).build();
/// let alice = engine.session();
/// let bob = engine.session();
/// // Cancelling alice's queries leaves bob (and the engine scope) alone.
/// alice.handle().cancel();
/// ```
#[derive(Clone)]
pub struct Session {
    engine: Engine,
    cancel: Arc<CancelState>,
    defaults: QueryOptions,
}

impl Engine {
    /// Open a new session: an independent cancellation scope with its own
    /// per-query option defaults. See [`Session`].
    pub fn session(&self) -> Session {
        Session::over(self.clone(), Arc::new(CancelState::default()))
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
}

impl Session {
    /// A session of `engine` cancelled through `cancel`, without defaults.
    pub(crate) fn over(engine: Engine, cancel: Arc<CancelState>) -> Session {
        Session {
            engine,
            cancel,
            defaults: QueryOptions::default(),
        }
    }

    /// Replace this session's option defaults (fields left `None` still
    /// fall back to the engine builder's settings).
    pub fn with_defaults(mut self, defaults: QueryOptions) -> Session {
        self.defaults = defaults;
        self
    }

    /// This session's option defaults.
    pub fn defaults(&self) -> &QueryOptions {
        &self.defaults
    }

    /// The shared engine this session scopes.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A cancellation token for *this session's* scope. Cancellation is
    /// sticky within the scope — in-flight and future queries of this
    /// session fail with [`PlanError::Cancelled`] until
    /// [`ExecHandle::reset`] — and invisible outside it: other sessions
    /// and the engine-wide scope keep running.
    pub fn handle(&self) -> ExecHandle {
        ExecHandle::new(self.cancel.clone())
    }

    /// [`Engine::query`] under this session's scope and defaults.
    pub fn query(&self, plan: &LogicalPlan) -> Result<QueryResult, PlanError> {
        self.query_with(plan, &QueryOptions::default())
    }

    /// [`Session::query`] with per-call overrides (fields left `None`
    /// fall back to the session defaults, then the engine's).
    pub fn query_with(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PlanError> {
        self.run(Statement::Plan(plan), opts)
    }

    /// [`Session::query_with`] of a plan or of an ad-hoc text. Every
    /// statement — the engine's, a bound statement's, an ad-hoc SQL text's —
    /// runs here, on one plan-cache lookup.
    pub(crate) fn run(
        &self,
        stmt: Statement<'_>,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PlanError> {
        let merged = opts.or(&self.defaults);
        let inner = &self.engine.inner;
        let db = inner.read_db();
        let ran = inner.query_leveled(&db, stmt, &self.cancel, &merged, MetricsLevel::Off);
        ran.map(|(res, _)| res)
    }

    /// [`Engine::execute`] under this session's scope and defaults.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<QueryResult, PlanError> {
        self.execute_with(plan, &QueryOptions::default())
    }

    /// [`Session::execute`] with per-call overrides.
    pub fn execute_with(
        &self,
        plan: &PhysicalPlan,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PlanError> {
        let merged = opts.or(&self.defaults);
        let inner = &self.engine.inner;
        let db = inner.read_db();
        inner.execute_physical(&db, plan, &self.cancel, &merged)
    }

    /// [`Engine::explain_analyze`] under this session's scope and
    /// defaults.
    pub fn explain_analyze(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        self.explain_analyze_with(plan, &QueryOptions::default())
    }

    /// [`Session::explain_analyze`] with per-call overrides.
    pub fn explain_analyze_with(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOptions,
    ) -> Result<Explain, PlanError> {
        let merged = opts.or(&self.defaults);
        let inner = &self.engine.inner;
        let db = inner.read_db();
        let stmt = Statement::Plan(plan);
        let (res, ran) =
            inner.query_leveled(&db, stmt, &self.cancel, &merged, MetricsLevel::Timings)?;
        // Whether the next execution would take this plan from the cache:
        // the run may have marked its entry stale, or not kept it at all.
        let next = inner.cache.peek(ran.fingerprint, plan, &db);
        let cached = matches!(next, CacheLookup::Hit(_));
        Ok(inner.explain_planned(&db, plan, &ran.physical, cached, res.metrics))
    }
}
