//! The engine: access-aware planning and morsel-parallel tile-at-a-time
//! execution on the shared `swole-runtime` substrate.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, Weak};
use std::time::{Duration, Instant};

use crate::cache::{
    BreakerDecision, CacheLookup, FallbackBreakerStats, PlanCache, PlanCacheStats,
    DEFAULT_PLAN_CACHE_BYTES,
};
use crate::catalog::Database;
use crate::error::PlanError;
use crate::exec::{exec_agg, exec_window, post_process, AggStage, BoundEdge, ExecOpts, FkSource};
use crate::expr::{AggFunc, Expr};
use crate::logical::{AggSpec, FrameSpec, LogicalPlan, SortKey, WindowFnSpec};
use crate::metrics::{MetricsLevel, OpMetrics, QueryMetrics};
use crate::physical::{
    AggMode, AggShape, CostProfile, Estimates, GroupTableRepr, JoinEdge, PhysicalPlan, PostOp,
    Shape, WindowShape,
};
use crate::session::{QueryOptions, Session};
use crate::stats;
use crate::tile::{group_sink, TileProgram, Want};
use crate::value::Value;
use swole_bitmap::PositionalBitmap;
use swole_cost::choose::{choose_agg_mt, choose_groupjoin_mt, choose_semijoin, sort_cost};
use swole_cost::{
    choose_join_order, join_order_cost, observed, AggProfile, AggStrategy, CostParams,
    GroupJoinProfile, GroupJoinStrategy, JoinEdgeProfile, JoinGraphProfile, JoinOrderMethod,
    SemiJoinProfile, SemiJoinStrategy, WindowProfile, WindowStrategy,
};
use swole_ht::{AggTable, DenseAggTable};
use swole_kernels::{MORSEL_ROWS, TILE};
use swole_runtime::{
    AdmissionConfig, AdmissionController, AdmissionError, AdmissionPermit, CancelState, ExecCtx,
    ExecHandle, Executor, GlobalMemoryPool, MemoryPolicy, MemoryPoolStats, Priority,
};
use swole_storage::{ColumnData, Date, Decimal, Table};
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

/// A materialized query result: named columns, row-major `i64` values.
///
/// Group-by results are sorted by the group key; dictionary-encoded group
/// keys come back as codes. A scalar aggregation always yields exactly one
/// row; with zero qualifying rows, sums and counts are 0 and min/max are 0.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Rows, each with one value per column.
    pub rows: Vec<Vec<i64>>,
    /// Metrics snapshot from the execution that produced this result;
    /// `None` when the session ran with [`MetricsLevel::Off`].
    pub(crate) metrics: Option<QueryMetrics>,
    /// Dictionary for the group-key column (column 0) when it was
    /// dictionary-encoded; lets [`QueryResult::col_str`] decode codes back
    /// to strings.
    pub(crate) key_dict: Option<Arc<Vec<String>>>,
}

/// Equality compares the *data* (columns and rows) only — two identical
/// results are equal even if one carries metrics and the other does not,
/// so engine-vs-interpreter cross-checks keep working at any level.
impl PartialEq for QueryResult {
    fn eq(&self, other: &QueryResult) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl Eq for QueryResult {}

impl QueryResult {
    /// Build a bare result from columns and rows (no metrics, no key
    /// dictionary) — for tests and external harnesses that need a
    /// comparison baseline.
    pub fn new(columns: Vec<String>, rows: Vec<Vec<i64>>) -> QueryResult {
        QueryResult {
            columns,
            rows,
            metrics: None,
            key_dict: None,
        }
    }

    /// The single value of a one-row result column.
    ///
    /// Errors with [`PlanError::NotScalar`] when the result has more or
    /// fewer than one row, and [`PlanError::UnknownResultColumn`] when no
    /// column has that name.
    pub fn try_scalar(&self, column: &str) -> Result<i64, PlanError> {
        if self.rows.len() != 1 {
            return Err(PlanError::NotScalar {
                rows: self.rows.len(),
            });
        }
        let i = self.column_index(column)?;
        self.rows[0]
            .get(i)
            .copied()
            .ok_or(PlanError::IndexOutOfRange {
                axis: "column",
                index: i,
                len: self.rows[0].len(),
            })
    }

    /// The metrics snapshot recorded while producing this result, when the
    /// session (or `EXPLAIN ANALYZE`) executed with
    /// [`MetricsLevel::Counters`] or higher.
    pub fn metrics(&self) -> Option<&QueryMetrics> {
        self.metrics.as_ref()
    }

    /// All values of a named column, top to bottom. Rows are stored
    /// row-major, so this materializes an owned `Vec`. `None` when no
    /// column has that name.
    pub fn col(&self, column: &str) -> Option<Vec<i64>> {
        let i = self.column_index(column).ok()?;
        Some(self.rows.iter().map(|r| r[i]).collect())
    }

    /// Index of a named column in every row.
    pub fn column_index(&self, column: &str) -> Result<usize, PlanError> {
        self.columns
            .iter()
            .position(|c| c == column)
            .ok_or_else(|| PlanError::UnknownResultColumn(column.to_string()))
    }

    /// A named column decoded as fixed-point decimals (the raw `i64`
    /// values reinterpreted at the storage scale). `None` when no column
    /// has that name.
    pub fn col_decimal(&self, column: &str) -> Option<Vec<Decimal>> {
        let vals = self.col(column)?;
        Some(vals.into_iter().map(Decimal::from_raw).collect())
    }

    /// A named column decoded as calendar dates (the raw `i64` values
    /// reinterpreted as day numbers). `None` when no column has that name.
    pub fn col_date(&self, column: &str) -> Option<Vec<Date>> {
        let vals = self.col(column)?;
        Some(vals.into_iter().map(|v| Date(v as i32)).collect())
    }

    /// A dictionary-encoded column decoded to strings. Only the group-key
    /// column of a group-by over a dictionary column carries its
    /// dictionary; every other column errors with
    /// [`PlanError::InvalidExpr`].
    pub fn col_str(&self, column: &str) -> Result<Vec<String>, PlanError> {
        let i = self.column_index(column)?;
        if i != 0 {
            return Err(PlanError::InvalidExpr(format!(
                "column {column} is an aggregate, not a dictionary-encoded key"
            )));
        }
        let dict = self.key_dict.as_ref().ok_or_else(|| {
            PlanError::InvalidExpr(format!(
                "column {column} is not dictionary-encoded (no dictionary to decode through)"
            ))
        })?;
        self.rows
            .iter()
            .map(|r| {
                dict.get(r[i] as usize).cloned().ok_or_else(|| {
                    PlanError::InvalidExpr(format!(
                        "code {} out of range for the dictionary of {column}",
                        r[i]
                    ))
                })
            })
            .collect()
    }

    /// The single value of a one-row result column, typed: a dictionary
    /// decoded group key comes back as [`Value::Str`], everything else as
    /// [`Value::Int`] (decimals and dates are raw `i64` at this level —
    /// use [`QueryResult::col_decimal`] / [`QueryResult::col_date`] when
    /// the query semantics are known).
    pub fn try_scalar_value(&self, column: &str) -> Result<Value, PlanError> {
        let raw = self.try_scalar(column)?;
        let i = self.column_index(column)?;
        if i == 0 {
            if let Some(dict) = self.key_dict.as_ref() {
                if let Some(s) = dict.get(raw as usize) {
                    return Ok(Value::Str(s.clone()));
                }
            }
        }
        Ok(Value::Int(raw))
    }

    /// The value at (`row`, `col`) by position, typed like
    /// [`QueryResult::try_scalar_value`]. Out-of-range indices are typed
    /// [`PlanError::IndexOutOfRange`] errors, never panics — callers
    /// walking results positionally (the conformance harness, cursors) can
    /// probe past the edge safely.
    pub fn value(&self, row: usize, col: usize) -> Result<Value, PlanError> {
        let r = self.rows.get(row).ok_or(PlanError::IndexOutOfRange {
            axis: "row",
            index: row,
            len: self.rows.len(),
        })?;
        let raw = *r.get(col).ok_or(PlanError::IndexOutOfRange {
            axis: "column",
            index: col,
            len: r.len(),
        })?;
        if col == 0 {
            if let Some(dict) = self.key_dict.as_ref() {
                if let Some(s) = dict.get(raw as usize) {
                    return Ok(Value::Str(s.clone()));
                }
            }
        }
        Ok(Value::Int(raw))
    }
}

/// One edge of a multi-way join as `EXPLAIN` renders it: the build-side
/// table, the FK that reaches it, nesting depth (0 = direct fact edge),
/// the membership structure, and estimated vs observed cardinality.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdgeExplain {
    /// Build-side (parent) table of the edge.
    pub parent: String,
    /// FK column on the probe side pointing into `parent`.
    pub fk_col: String,
    /// Nesting depth: 0 for direct fact edges, 1+ for chain edges that
    /// restrict a parent.
    pub depth: usize,
    /// Membership structure built for the edge (`key-set` or
    /// `positional-bitmap`).
    pub build_side: String,
    /// Estimated rows surviving the edge's membership test.
    pub est_rows: u64,
    /// Rows actually surviving the edge in the last `EXPLAIN ANALYZE` run;
    /// `None` from plain `EXPLAIN`.
    pub observed_rows: Option<u64>,
}

/// A structured `EXPLAIN`: what shape the planner picked, which access
/// strategy drives the loop body, the parallelism degree, and the
/// cost-model evidence. `Display` renders the classic indented text.
#[derive(Debug, Clone)]
pub struct Explain {
    /// One-line description of the physical shape (operators and tables).
    pub shape: String,
    /// Short name of the chosen access strategy.
    pub strategy: String,
    /// Worker threads execution will use.
    pub threads: usize,
    /// Rows per parallel work unit (a whole number of tiles).
    pub morsel_rows: usize,
    /// Where the next execution's plan would come from: `Some("cached")`
    /// when the session's plan cache holds a valid entry for this query,
    /// `Some("fresh")` when it would plan from scratch. `None` from
    /// contexts that bypass the cache.
    pub plan_source: Option<String>,
    /// Named cost-model terms (cycles) behind the decision.
    pub cost_terms: Vec<(String, f64)>,
    /// The planner's decision trail, one line each.
    pub decisions: Vec<String>,
    /// Runtime outcome of the session's most recent [`Engine::query`]:
    /// completion, partial progress at cancellation/deadline, or a recorded
    /// fallback to the data-centric interpreter. Empty before any query.
    pub runtime: Vec<String>,
    /// Per-operator execution metrics — populated by
    /// [`Engine::explain_analyze`], `None` from plain [`Engine::explain`].
    pub analyze: Option<QueryMetrics>,
    /// Static-verification pass summary — populated by
    /// [`Engine::explain_verify`], empty from plain [`Engine::explain`].
    pub verification: Vec<String>,
    /// How a multi-way join's probe order was determined (`dp`, `greedy`,
    /// or `pinned`); `None` for other shapes.
    pub join_order: Option<String>,
    /// The multi-way join tree, one entry per edge in probe order (nested
    /// chain edges follow their parent, indented by `depth`). Empty for
    /// other shapes.
    pub join_tree: Vec<JoinEdgeExplain>,
}

impl Explain {
    /// Fill `observed_rows` on the join tree from an `EXPLAIN ANALYZE`
    /// metrics snapshot: each probe-side edge reports an operator named
    /// `multijoin-probe(<parent>)` whose `rows_out` is the edge's actual
    /// surviving cardinality.
    fn fill_join_observed(&mut self) {
        let Some(m) = &self.analyze else { return };
        for e in &mut self.join_tree {
            // Nested chain edges have no probe op — their observed
            // cardinality is the qualifying parent rows of their build op.
            let name = if e.depth == 0 {
                JoinEdge::probe_op(&e.parent)
            } else {
                JoinEdge::build_op(&e.parent)
            };
            if let Some(op) = m.operators.iter().find(|o| o.name == name) {
                e.observed_rows = Some(op.access.rows_out);
            }
        }
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.shape)?;
        write!(f, "\n  strategy: {}", self.strategy)?;
        write!(
            f,
            "\n  parallelism: {} thread(s), {}-row morsels",
            self.threads, self.morsel_rows
        )?;
        if let Some(source) = &self.plan_source {
            write!(f, "\n  plan: {source}")?;
        }
        for (name, cycles) in &self.cost_terms {
            write!(f, "\n  cost[{name}] = {cycles:.3e} cyc")?;
        }
        for d in &self.decisions {
            write!(f, "\n  -> {d}")?;
        }
        for r in &self.runtime {
            write!(f, "\n  ~ last run: {r}")?;
        }
        if let Some(order) = &self.join_order {
            write!(f, "\n  join order: {order}")?;
        }
        for e in &self.join_tree {
            write!(
                f,
                "\n  {}edge {} -> {} [{}] est {} rows",
                "  ".repeat(e.depth),
                e.fk_col,
                e.parent,
                e.build_side,
                e.est_rows
            )?;
            if let Some(obs) = e.observed_rows {
                write!(f, ", observed {obs} rows")?;
            }
        }
        if let Some(a) = &self.analyze {
            write!(f, "\n  {a}")?;
        }
        for v in &self.verification {
            write!(f, "\n  verify: {v}")?;
        }
        Ok(())
    }
}

/// Strategy pins that override the cost model, for equivalence tests and
/// experiments. `None` / empty fields (the default) leave the paper's
/// Fig. 2 choosers — and the join-order enumerator — in charge; a set
/// field pins that decision for every query of the session. Set through
/// [`EngineBuilder::strategies`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrategyOverrides {
    /// Pin the scan-aggregation strategy. Pinning a masked strategy while
    /// the aggregate list contains min/max fails at plan time (those
    /// require hybrid).
    pub agg: Option<AggStrategy>,
    /// Pin the semijoin build/probe strategy. In a multi-way join this pins
    /// every edge's membership structure; per-edge pins
    /// ([`StrategyOverrides::build_side`]) take precedence.
    pub semijoin: Option<SemiJoinStrategy>,
    /// Pin the groupjoin strategy.
    pub groupjoin: Option<GroupJoinStrategy>,
    /// Pin the window frame-state strategy.
    pub window: Option<WindowStrategy>,
    /// Pin the multi-way join probe order: build-side table names in the
    /// order their membership tests must run. Must name every direct edge
    /// of the query's join graph exactly once; plans that don't match fail
    /// at plan time.
    pub join_order: Option<Vec<String>>,
    /// Per-edge build-side pins for multi-way joins: for the edge whose
    /// build side is the named table, use the given membership structure
    /// instead of the cost model's per-edge choice.
    pub build_sides: Vec<(String, SemiJoinStrategy)>,
}

impl StrategyOverrides {
    /// Overrides pinning only the scan-aggregation strategy.
    pub fn pin_agg(s: AggStrategy) -> StrategyOverrides {
        StrategyOverrides {
            agg: Some(s),
            ..StrategyOverrides::default()
        }
    }

    /// Overrides pinning only the semijoin strategy.
    pub fn pin_semijoin(s: SemiJoinStrategy) -> StrategyOverrides {
        StrategyOverrides {
            semijoin: Some(s),
            ..StrategyOverrides::default()
        }
    }

    /// Overrides pinning only the groupjoin strategy.
    pub fn pin_groupjoin(s: GroupJoinStrategy) -> StrategyOverrides {
        StrategyOverrides {
            groupjoin: Some(s),
            ..StrategyOverrides::default()
        }
    }

    /// Overrides pinning only the window frame-state strategy.
    pub fn pin_window(s: WindowStrategy) -> StrategyOverrides {
        StrategyOverrides {
            window: Some(s),
            ..StrategyOverrides::default()
        }
    }

    /// Pin the multi-way join probe order (build-side table names, probe
    /// order first-to-last). Builder-style: composes with other pins.
    pub fn join_order(mut self, order: Vec<String>) -> StrategyOverrides {
        self.join_order = Some(order);
        self
    }

    /// Pin the membership structure for the multi-way join edge whose
    /// build side is `table`. Builder-style: composes with other pins.
    pub fn build_side(
        mut self,
        table: impl Into<String>,
        s: SemiJoinStrategy,
    ) -> StrategyOverrides {
        self.build_sides.push((table.into(), s));
        self
    }

    /// Cache-key suffix for the pins that change plan structure: two
    /// queries differing only in join-order/build-side pins must not share
    /// a cached plan.
    fn fingerprint_suffix(&self) -> String {
        let mut out = String::new();
        if let Some(order) = &self.join_order {
            out.push_str(":jo[");
            out.push_str(&order.join(","));
            out.push(']');
        }
        for (t, s) in &self.build_sides {
            out.push_str(&format!(":bs[{t}={s:?}]"));
        }
        out
    }
}

/// Builder for [`Engine`] sessions: database, cost parameters, parallelism
/// (scoped threads or a shared worker pool), memory hierarchy, admission
/// control, and per-query option defaults.
///
/// ```
/// # use swole_plan::{Database, Engine};
/// let engine = Engine::builder(Database::new()).threads(4).build();
/// assert_eq!(engine.threads(), 4);
/// ```
pub struct EngineBuilder {
    db: Database,
    params: CostParams,
    threads: usize,
    morsel_rows: usize,
    deadline: Option<Duration>,
    memory_budget: Option<usize>,
    metrics: MetricsLevel,
    plan_cache_bytes: usize,
    verify: VerifyLevel,
    strategies: StrategyOverrides,
    worker_pool: Option<usize>,
    global_budget: Option<usize>,
    memory_policy: MemoryPolicy,
    admission: Option<AdmissionConfig>,
    stall_window: Option<Duration>,
    stats_mode: stats::StatsMode,
}

impl EngineBuilder {
    fn new(db: Database) -> EngineBuilder {
        EngineBuilder {
            db,
            params: CostParams::default(),
            threads: 1,
            morsel_rows: MORSEL_ROWS,
            deadline: None,
            memory_budget: None,
            metrics: MetricsLevel::Off,
            plan_cache_bytes: DEFAULT_PLAN_CACHE_BYTES,
            verify: VerifyLevel::default_for_build(),
            strategies: StrategyOverrides::default(),
            worker_pool: None,
            global_budget: None,
            memory_policy: MemoryPolicy::default(),
            admission: None,
            stall_window: None,
            stats_mode: stats::StatsMode::default(),
        }
    }

    /// Use specific (e.g. calibrated) cost parameters.
    pub fn params(mut self, params: CostParams) -> EngineBuilder {
        self.params = params;
        self
    }

    /// Number of worker threads for execution (default 1 = sequential).
    /// `0` means "use all available hardware parallelism". Without
    /// [`EngineBuilder::worker_pool`], each query spawns this many scoped
    /// workers for its own lifetime.
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        self
    }

    /// Execute every query of this session on one fixed pool of `workers`
    /// persistent threads instead of per-query scoped workers. Concurrent
    /// queries multiplex over the pool morsel-by-morsel (higher
    /// [`Priority`] classes are drained first), so N clients share the
    /// machine instead of oversubscribing it N-fold. Results stay
    /// bit-identical to scoped execution: morsel boundaries are identical
    /// and every merge is commutative and associative. Also sets the
    /// session's planning parallelism ([`EngineBuilder::threads`]) to
    /// `workers`.
    pub fn worker_pool(mut self, workers: usize) -> EngineBuilder {
        let workers = workers.max(1);
        self.worker_pool = Some(workers);
        self.threads = workers;
        self
    }

    /// Rows per parallel work unit (morsel), rounded up to whole
    /// [`TILE`]-row tiles. Default is [`MORSEL_ROWS`].
    pub fn tile_rows(mut self, rows: usize) -> EngineBuilder {
        self.morsel_rows = rows.div_ceil(TILE).max(1) * TILE;
        self
    }

    /// Per-query wall-clock deadline. Workers observe it cooperatively at
    /// morsel boundaries; an expired deadline returns
    /// [`PlanError::DeadlineExceeded`] with partial-progress counts. A 0ms
    /// deadline deterministically fails every query before its first
    /// morsel, at any thread count. Overridable per call through
    /// [`QueryOptions::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> EngineBuilder {
        self.deadline = Some(deadline);
        self
    }

    /// Per-query memory budget in bytes, enforced by a [`crate::MemGauge`]
    /// charged at every allocation site that scales with input (masks,
    /// bitmaps, key sets, hash-table growth, worker scratch). A charge that
    /// would exceed the budget returns [`PlanError::BudgetExceeded`]
    /// *before* allocating. Overridable per call through
    /// [`QueryOptions::memory_budget`].
    pub fn memory_budget(mut self, bytes: usize) -> EngineBuilder {
        self.memory_budget = Some(bytes);
        self
    }

    /// Engine-wide memory budget in bytes shared by every concurrent
    /// query. Each query's gauge forwards its charges to this pool
    /// (global-first, so the engine total can never exceed the budget);
    /// how the pool arbitrates between queries is set by
    /// [`EngineBuilder::memory_policy`]. A charge the pool refuses fails
    /// that query with [`PlanError::BudgetExceeded`].
    pub fn global_memory_budget(mut self, bytes: usize) -> EngineBuilder {
        self.global_budget = Some(bytes);
        self
    }

    /// Arbitration policy for [`EngineBuilder::global_memory_budget`]
    /// (default [`MemoryPolicy::Greedy`]).
    pub fn memory_policy(mut self, policy: MemoryPolicy) -> EngineBuilder {
        self.memory_policy = policy;
        self
    }

    /// Bound how many queries may execute (and wait) simultaneously.
    /// Arrivals beyond `max_concurrent` running plus `queue_depth` waiting
    /// are rejected with [`PlanError::Admission`] instead of queueing
    /// unboundedly; waiters are admitted by [`Priority`] class, and a
    /// waiter whose deadline expires in the queue is rejected without ever
    /// executing.
    pub fn admission(mut self, cfg: AdmissionConfig) -> EngineBuilder {
        self.admission = Some(cfg);
        self
    }

    /// Arm the per-query watchdog: a query that completes no morsel for
    /// `window` straight is cancelled with [`PlanError::Stalled`] (with
    /// partial-progress counts) instead of wedging an execution slot until
    /// its deadline — or forever, when it has none. The watchdog is
    /// cooperative, observed at morsel boundaries by every worker of the
    /// query, so it catches schedule starvation and pathologically slow
    /// progress, not a single wedged morsel body. Off by default;
    /// overridable per call through [`QueryOptions::stall_window`].
    pub fn stall_window(mut self, window: Duration) -> EngineBuilder {
        self.stall_window = Some(window);
        self
    }

    /// How much every query measures while executing (default
    /// [`MetricsLevel::Off`]). [`MetricsLevel::Counters`] collects
    /// per-operator access counters ([`QueryResult::metrics`]);
    /// [`MetricsLevel::Timings`] adds per-operator and per-query wall
    /// clock. [`Engine::explain_analyze`] raises the level to at least
    /// `Timings` for its one execution regardless of this setting.
    /// Overridable per call through [`QueryOptions::metrics`].
    pub fn metrics(mut self, level: MetricsLevel) -> EngineBuilder {
        self.metrics = level;
        self
    }

    /// Pin access strategies, overriding the cost model (equivalence tests
    /// and experiments). Fields left `None` keep the choosers in charge.
    pub fn strategies(mut self, overrides: StrategyOverrides) -> EngineBuilder {
        self.strategies = overrides;
        self
    }

    /// How the session collects and maintains catalog statistics (default
    /// [`stats::StatsMode::OnLoad`]): `Off` falls back to per-query
    /// sampling, `OnLoad` snapshots every table at registration/reload, and
    /// `Adaptive` additionally folds observed selectivities from metered
    /// runs back into the stats.
    pub fn stats(mut self, mode: stats::StatsMode) -> EngineBuilder {
        self.stats_mode = mode;
        self
    }

    /// Byte budget for the session's plan cache (default 64 KiB). Cached
    /// physical plans are byte-accounted against this budget with the same
    /// [`crate::MemGauge`] machinery that enforces query memory budgets,
    /// and the least recently used entries are evicted to make room. `0`
    /// disables plan caching entirely — every query plans from scratch.
    pub fn plan_cache_bytes(mut self, bytes: usize) -> EngineBuilder {
        self.plan_cache_bytes = bytes;
        self
    }

    /// Static-verification level for every plan this session composes
    /// (default: [`VerifyLevel::Structural`] in debug builds,
    /// [`VerifyLevel::Off`] in release builds).
    ///
    /// Verification runs once per plan, at plan time — never per morsel or
    /// per tile — and its verdict is cached alongside the plan, so a cache
    /// hit re-verifies only if the session demands a *stricter* level than
    /// the one already established. `Structural` runs the schema/type and
    /// domain-discipline passes; `Full` adds the access-signature
    /// cross-check against the cost model and the resource-accounting
    /// audit. An ill-formed plan fails with [`PlanError::Verification`]
    /// before any execution starts. Overridable per call through
    /// [`QueryOptions::verify`].
    pub fn verify(mut self, level: VerifyLevel) -> EngineBuilder {
        self.verify = level;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> Engine {
        let executor = match self.worker_pool {
            Some(w) => Executor::pool(w),
            None => Executor::scoped(self.threads),
        };
        let table_stats = if self.stats_mode == stats::StatsMode::Off {
            std::collections::HashMap::new()
        } else {
            let names: Vec<String> = self.db.table_names().map(str::to_string).collect();
            names
                .into_iter()
                .map(|n| {
                    let s = stats::collect_table_stats(self.db.table(&n).expect("registered"));
                    (n, s)
                })
                .collect()
        };
        Engine {
            inner: Arc::new(EngineInner {
                db: RwLock::new(self.db),
                params: self.params,
                threads: self.threads,
                morsel_rows: self.morsel_rows,
                deadline: self.deadline,
                memory_budget: self.memory_budget,
                metrics: self.metrics,
                verify: self.verify,
                strategies: self.strategies,
                stats_mode: self.stats_mode,
                table_stats: RwLock::new(table_stats),
                executor,
                admission: self
                    .admission
                    .map(|cfg| Arc::new(AdmissionController::new(cfg))),
                global: self
                    .global_budget
                    .map(|b| Arc::new(GlobalMemoryPool::new(b, self.memory_policy))),
                cancel: Arc::new(CancelState::default()),
                last_run: Mutex::new(Vec::new()),
                cache: PlanCache::new(self.plan_cache_bytes),
                stall_window: self.stall_window,
                lifecycle: Lifecycle::new(),
            }),
        }
    }
}

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
struct Lifecycle {
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
    fn new() -> Lifecycle {
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
    fn enter(&self) -> Result<QueryGuard<'_>, PlanError> {
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

/// RAII presence of one query in the lifecycle registry.
struct QueryGuard<'a> {
    lifecycle: &'a Lifecycle,
    id: u64,
}

impl QueryGuard<'_> {
    /// Register the query's execution context so a deadline-abort can
    /// reach it (queries still queued in admission have no context yet and
    /// exit through the flushed queue instead).
    fn attach(&self, ctx: &Arc<ExecCtx>) {
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

/// Per-call limits resolved against the session defaults.
struct ResolvedOpts {
    deadline: Option<Duration>,
    memory_budget: Option<usize>,
    metrics: MetricsLevel,
    verify: VerifyLevel,
    priority: Priority,
    stall: Option<Duration>,
}

/// The access-aware query engine: owns a [`Database`] and cost parameters,
/// plans logical queries through the paper's choosers (thread-aware when
/// the session is parallel), and executes them with the `swole-kernels`
/// loop bodies on morsel-driven workers — per-query scoped threads by
/// default, or one fixed shared pool with [`EngineBuilder::worker_pool`].
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
    deadline: Option<Duration>,
    memory_budget: Option<usize>,
    metrics: MetricsLevel,
    verify: VerifyLevel,
    strategies: StrategyOverrides,
    /// How catalog statistics are collected and maintained.
    stats_mode: stats::StatsMode,
    /// Catalog statistics per table, keyed by table name. Refreshed lazily
    /// when a table's generation counter moves past the snapshot's.
    table_stats: RwLock<std::collections::HashMap<String, stats::TableStats>>,
    /// Where morsels run: per-query scoped workers or the shared pool.
    executor: Executor,
    /// Concurrency limiter; `None` admits everything immediately.
    admission: Option<Arc<AdmissionController>>,
    /// Engine-wide memory budget every query's gauge draws from.
    global: Option<Arc<GlobalMemoryPool>>,
    /// Engine-wide cancellation scope, shared with every [`ExecHandle`]
    /// from [`Engine::handle`] (sessions get their own scope).
    cancel: Arc<CancelState>,
    /// Runtime report of the most recent `query` (outcome, fallback,
    /// partial progress) — surfaced through [`Explain::runtime`].
    last_run: Mutex<Vec<String>>,
    /// Bounded, cost-keyed physical-plan cache shared by the session.
    cache: PlanCache,
    /// Session default for the per-query stall watchdog.
    stall_window: Option<Duration>,
    /// Drain/abort bookkeeping behind [`Engine::shutdown`].
    lifecycle: Lifecycle,
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

/// Optional overrides threaded into planning. Produced when drift
/// invalidation re-plans a statement: the observed selectivity replaces the
/// sample estimate, so the re-plan reflects measurement instead of
/// repeating the mis-estimate (and the cache cannot thrash between the two).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PlanHints {
    /// Overrides the sampled selectivity of the plan's primary filter (the
    /// scan filter, or the build-side filter of a join shape).
    pub selectivity: Option<f64>,
}

impl Engine {
    /// Start building an engine session over `db`.
    pub fn builder(db: Database) -> EngineBuilder {
        EngineBuilder::new(db)
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
        if self.inner.stats_mode != stats::StatsMode::Off {
            let fresh = stats::collect_table_stats(db.table(&name).expect("just loaded"));
            let mut map = self
                .inner
                .table_stats
                .write()
                .unwrap_or_else(|e| e.into_inner());
            map.insert(name, fresh);
        }
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
        Ok(self.inner.stats_for(&db, table))
    }

    /// How this session collects and maintains catalog statistics.
    pub fn stats_mode(&self) -> stats::StatsMode {
        self.inner.stats_mode
    }

    /// Register a foreign-key index through [`Database::add_fk`] (needed
    /// again after [`Engine::load_table`] replaced either side's table).
    pub fn register_fk(&self, child: &str, fk_col: &str, parent: &str) -> Result<(), PlanError> {
        let mut db = self.inner.db.write().unwrap_or_else(|e| e.into_inner());
        db.add_fk(child, fk_col, parent).map(|_| ())
    }

    /// Worker threads this session executes with.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Rows per parallel work unit (always a whole number of tiles).
    pub fn morsel_rows(&self) -> usize {
        self.inner.morsel_rows
    }

    /// `true` when this engine executes on a shared worker pool
    /// ([`EngineBuilder::worker_pool`]) instead of per-query scoped
    /// threads.
    pub fn uses_worker_pool(&self) -> bool {
        self.inner.executor.is_pool()
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

    /// Queries currently inside the engine (queued in admission or
    /// executing), as tracked by the lifecycle gate. `0` on an idle or
    /// stopped engine.
    pub fn queries_in_flight(&self) -> usize {
        self.inner
            .lifecycle
            .state
            .lock()
            .expect("engine lifecycle")
            .live
            .len()
    }

    /// Worker threads of the shared pool still running (`0` for scoped
    /// sessions and after [`Engine::shutdown`]).
    pub fn live_pool_workers(&self) -> usize {
        self.inner.executor.live_workers()
    }

    /// Gracefully shut the engine down: stop admitting queries, drain the
    /// ones in flight, and join the worker-pool threads.
    ///
    /// The sequence: (1) the lifecycle gate flips to draining, so new
    /// arrivals on *any* façade (engine, session, prepared statement) fail
    /// with [`PlanError::Admission`]/[`AdmissionError::Shutdown`]; (2) the
    /// admission queue is closed, flushing waiters with the same typed
    /// error; (3) in-flight queries run to completion — or, once
    /// `deadline` passes, are hard-aborted and surface
    /// [`PlanError::Shutdown`] with partial-progress counts (`None` waits
    /// indefinitely); (4) pool workers are joined, so no `swole-pool-*`
    /// thread survives. Every aborted query still releases its admission
    /// slot and global-memory reservation through the normal RAII paths.
    ///
    /// Idempotent: later calls (and queries racing them) observe the
    /// stopped state. Clones of this engine share the shutdown — it is an
    /// engine-wide, not per-handle, transition.
    pub fn shutdown(&self, deadline: Option<Duration>) -> ShutdownReport {
        let t0 = Instant::now();
        let deadline_at = deadline.map(|d| t0 + d);
        {
            let mut st = self.inner.lifecycle.state.lock().expect("engine lifecycle");
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
        // Flush queued waiters with the typed shutdown rejection; their
        // lifecycle guards drop as they exit, which counts them drained.
        if let Some(ctl) = &self.inner.admission {
            ctl.close();
        }
        let mut aborted = 0usize;
        let mut st = self.inner.lifecycle.state.lock().expect("engine lifecycle");
        let started_with = st.live.len();
        if let Some(at) = deadline_at {
            while !st.live.is_empty() {
                let now = Instant::now();
                if now >= at {
                    break;
                }
                let (guard, _) = self
                    .inner
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
            st = self.inner.lifecycle.cv.wait(st).expect("engine lifecycle");
        }
        st.phase = Phase::Stopped;
        drop(st);
        let pool_clean = self.inner.executor.shutdown(deadline_at);
        ShutdownReport {
            drained: started_with - aborted,
            aborted,
            clean: aborted == 0 && pool_clean,
            wait: t0.elapsed(),
        }
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

    /// EXPLAIN: plan and return the structured decision report (including
    /// whether the next execution would reuse a cached plan).
    pub fn explain(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        let db = self.inner.read_db();
        self.inner.explain_for(&db, plan, None)
    }

    /// EXPLAIN ANALYZE: execute the query once at (at least)
    /// [`MetricsLevel::Timings`] and return the decision report with the
    /// `analyze` section populated from the run — per-operator access
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
        self.inner.plan_with(&db, plan, PlanHints::default())
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
        let physical = self.inner.plan_with(&db, plan, PlanHints::default())?;
        crate::verify::verify_physical(&db, &physical, VerifyLevel::Full)
    }

    /// EXPLAIN VERIFY: the decision report of [`Engine::explain`] with the
    /// `verification` section populated by a [`VerifyLevel::Full`] pass
    /// over the composed plan (one summary line per pass) followed by the
    /// plan's admission-certificate bound lines (peak memory, overflow-safe
    /// arithmetic sites, and a per-operator bound breakdown).
    pub fn explain_verify(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        let db = self.inner.read_db();
        let physical = self.inner.plan_with(&db, plan, PlanHints::default())?;
        let (report, cert) =
            self.inner
                .verify_and_certify(&db, plan, &physical, VerifyLevel::Full)?;
        let mut ex = self.inner.explain_planned(&db, plan, &physical, None);
        ex.verification = report.lines;
        ex.verification.extend(cert.lines);
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
        let physical = self.inner.plan_with(&db, plan, PlanHints::default())?;
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

    /// Current statistics snapshot for `name`, refreshed if the table's
    /// generation moved past the snapshot's. `None` when statistics are
    /// off or the table is unknown.
    fn stats_for(&self, db: &Database, name: &str) -> Option<stats::TableStats> {
        if self.stats_mode == stats::StatsMode::Off {
            return None;
        }
        let generation = db.generation(name)?;
        {
            let map = self.table_stats.read().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = map.get(name) {
                if s.fresh_for(generation) {
                    return Some(s.clone());
                }
            }
        }
        let fresh = stats::collect_table_stats(db.table(name).ok()?);
        let mut map = self.table_stats.write().unwrap_or_else(|e| e.into_inner());
        let entry = map.entry(name.to_string()).or_insert_with(|| fresh.clone());
        if !entry.fresh_for(generation) {
            *entry = fresh.clone();
        }
        Some(entry.clone())
    }

    /// Fold an observed filter selectivity back into `name`'s statistics
    /// ([`stats::StatsMode::Adaptive`] only).
    fn observe_selectivity(&self, name: &str, observed: f64) {
        if self.stats_mode != stats::StatsMode::Adaptive {
            return;
        }
        let mut map = self.table_stats.write().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = map.get_mut(name) {
            s.observed_selectivity = Some(observed);
        }
    }

    /// Resolve per-call options against the session defaults.
    fn resolve(&self, opts: &QueryOptions) -> ResolvedOpts {
        ResolvedOpts {
            deadline: opts.deadline.or(self.deadline),
            memory_budget: opts.memory_budget.or(self.memory_budget),
            metrics: opts.metrics.unwrap_or(self.metrics),
            verify: opts.verify.unwrap_or(self.verify),
            priority: opts.priority.unwrap_or_default(),
            stall: opts.stall_window.or(self.stall_window),
        }
    }

    /// Pass admission control (a no-op without a configured controller).
    /// The returned permit holds the execution slot until dropped — through
    /// any fallback retry, so a rejected-then-retried query cannot double
    /// its slot usage.
    fn admit(
        &self,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<Option<AdmissionPermit>, PlanError> {
        match &self.admission {
            Some(ctl) => ctl
                .admit(priority, deadline)
                .map(Some)
                .map_err(PlanError::Admission),
            None => Ok(None),
        }
    }

    /// Fresh per-query execution context: its gauge draws from the
    /// engine-wide pool (if any), and its lifetime spans the primary
    /// attempt *and* any data-centric fallback.
    fn exec_ctx(
        &self,
        cancel: &Arc<CancelState>,
        r: &ResolvedOpts,
        deadline_at: Option<Instant>,
    ) -> Arc<ExecCtx> {
        Arc::new(
            ExecCtx::new(
                Arc::clone(cancel),
                deadline_at,
                r.memory_budget,
                self.global.clone(),
                r.priority,
            )
            .with_stall_window(r.stall),
        )
    }

    fn record_run(&self, report: Vec<String>) {
        if let Ok(mut last) = self.last_run.lock() {
            *last = report;
        }
    }

    /// Plan through the session's cache: hits reuse the stored physical
    /// plan; misses plan fresh (honouring a drift hint, if the miss came
    /// from drift invalidation) and insert. Returns the plan, its cache
    /// key, and the plan's admission certificate.
    ///
    /// Every plan is certified regardless of the session's verify level:
    /// the certificate gates admission, not verification. Certificates are
    /// cached alongside the plan and share its invalidation — a table
    /// generation bump evicts the entry, so a stale certificate can never
    /// outlive the statistics it was derived from.
    fn plan_cached(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        verify: VerifyLevel,
    ) -> Result<(Arc<PhysicalPlan>, String, Arc<PlanCertificate>), PlanError> {
        let key = self.cache_key(plan);
        let gens = table_generations(db, plan);
        match self.cache.lookup(&key, &gens) {
            CacheLookup::Hit(physical, verified, certificate) => {
                // The cached verdict travels with the plan: re-verify only
                // when this call demands a stricter level than the one the
                // entry was already checked at.
                if verified < verify {
                    crate::verify::verify_physical(db, &physical, verify)?;
                    self.cache.note_verified(&key, verify);
                }
                let cert = match certificate {
                    Some(c) => c,
                    None => self.certificate_for(db, &physical, Some(plan))?,
                };
                Ok((physical, key, cert))
            }
            CacheLookup::Miss { drift_hint } => {
                let hints = PlanHints {
                    selectivity: drift_hint,
                };
                let physical = Arc::new(self.plan_with(db, plan, hints)?);
                let cert = if verify > VerifyLevel::Off {
                    Arc::new(self.verify_and_certify(db, plan, &physical, verify)?.1)
                } else {
                    self.certificate_for(db, &physical, Some(plan))?
                };
                self.cache.insert(
                    key.clone(),
                    Arc::clone(&physical),
                    gens,
                    verify,
                    Some(Arc::clone(&cert)),
                );
                Ok((physical, key, cert))
            }
        }
    }

    /// Plan `plan` into the cache without running it: an explicit `prepare`
    /// of a placeholder-free template, whose first `execute` is then a hit.
    pub(crate) fn plan_now(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOptions,
    ) -> Result<(), PlanError> {
        let db = self.read_db();
        self.plan_cached(&db, plan, self.resolve(opts).verify)
            .map(drop)
    }

    /// Lower `physical` exactly once and run verification at `level` and the
    /// bounds pass over the same program: the one-shot uncharged-allocation
    /// fault must flow into the program the verifier actually judges.
    fn verify_and_certify(
        &self,
        db: &Database,
        logical: &LogicalPlan,
        physical: &PhysicalPlan,
        level: VerifyLevel,
    ) -> Result<(VerifyReport, PlanCertificate), PlanError> {
        let program = crate::verify::program_for(db, physical)?;
        let report = swole_verify::verify(&program, level).map_err(PlanError::Verification)?;
        let ctx = self.bounds_ctx_for(db, &program, fallback_bytes(db, logical));
        Ok((report, swole_verify::certify(&program, &ctx)))
    }

    /// Derive the admission certificate for a composed plan via a
    /// certification-only lowering (non-consuming with respect to the
    /// uncharged-allocation verification fault). The bound reserves what a
    /// data-centric fallback over `logical` would charge (`None`: no fallback).
    fn certificate_for(
        &self,
        db: &Database,
        physical: &PhysicalPlan,
        logical: Option<&LogicalPlan>,
    ) -> Result<Arc<PlanCertificate>, PlanError> {
        let program = crate::verify::program_for_certification(db, physical)?;
        let reserve = logical.map_or(0, |plan| fallback_bytes(db, plan));
        let ctx = self.bounds_ctx_for(db, &program, reserve);
        Ok(Arc::new(swole_verify::certify(&program, &ctx)))
    }

    /// Assemble the abstract-interpretation context for the bounds pass:
    /// the worker count the plan will actually run at, plus a statistics
    /// profile (generation-fresh min/max and exact distinct counts) for
    /// every table the lowered program references. With statistics off the
    /// pass falls back to column-type domains.
    fn bounds_ctx_for(
        &self,
        db: &Database,
        program: &swole_verify::ir::Program,
        fallback_bytes: u64,
    ) -> BoundsCtx {
        let workers = match &self.executor {
            Executor::Scoped { threads } => *threads,
            Executor::Pool(pool) => pool.workers(),
        };
        let mut ctx = BoundsCtx::without_stats(workers);
        ctx.fallback_bytes = fallback_bytes;
        for table in &program.tables {
            let Some(s) = self.stats_for(db, &table.name) else {
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
        let budget = match (per_query, global) {
            (Some(q), Some(g)) => q.min(g),
            (Some(q), None) => q,
            (None, Some(g)) => g,
            (None, None) => return Ok(()),
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

    /// Plan-cache key: the thread count (it feeds the multi-threaded
    /// groupjoin chooser, so plans picked at different parallelism must not
    /// alias), the logical plan's debug rendering — canonical as built: the
    /// SQL binder and [`crate::QueryBuilder::filter`] put one conjunction in
    /// one `Filter` — and any structural strategy pins (join order, per-edge
    /// build sides) that change what the planner would produce.
    fn cache_key(&self, plan: &LogicalPlan) -> String {
        let pins = self.strategies.fingerprint_suffix();
        format!("t{}:{plan:?}{pins}", self.threads)
    }

    /// One statement, start to finish, under `cancel` and the resolved
    /// `opts`; [`Session`]'s `query_with` and `explain_analyze_with` are its
    /// only callers, the latter raising the metrics level to at least `floor`.
    pub(crate) fn query_leveled(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        cancel: &Arc<CancelState>,
        opts: &QueryOptions,
        floor: MetricsLevel,
    ) -> Result<QueryResult, PlanError> {
        let r = self.resolve(opts);
        let level = r.metrics.max(floor);
        // Lifecycle gate first: a draining/stopped engine rejects before
        // the query can queue in admission or touch the cache.
        let gate = self.lifecycle.enter()?;
        // The deadline anchors *before* admission: time spent waiting in
        // the queue counts against it, and an expired waiter is rejected
        // without ever holding a slot.
        let deadline_at = r.deadline.map(|d| Instant::now() + d);
        let (physical, cache_key, cert) = self.plan_cached(db, plan, r.verify)?;
        // Admission-time enforcement: a plan whose proven bound cannot fit
        // the budget is rejected *before* it occupies an admission slot or
        // any worker starts, instead of failing mid-flight.
        self.check_budget_feasible(r.memory_budget, &cert)?;
        let _permit = self.admit(r.priority, deadline_at)?;
        let physical = &*physical;
        let ctx = self.exec_ctx(cancel, &r, deadline_at);
        gate.attach(&ctx);
        let t0 = level.timing().then(Instant::now);
        let strategy = &physical.strategy;
        let mut report = Vec::new();
        // Finish the statement under the data-centric interpreter, after
        // `retries` failed attempts; `ok` is the run report's last line.
        let fall_back = |mut report: Vec<String>, ok: &str, retries| {
            match self.fallback_datacentric(db, plan, &ctx, level) {
                Ok((mut res, op)) => {
                    report.push(ok.into());
                    self.record_run(report);
                    // A failed attempt's counters are discarded: the
                    // interpreter's single operator *replaces* the
                    // operator list, so rows are never double-counted.
                    let ops = op.into_iter().collect();
                    self.attach_metrics(&mut res, physical, ops, &ctx, level, retries, t0, &cert);
                    Ok(res)
                }
                Err(fe) => {
                    report.push(format!("data-centric fallback failed: {fe}"));
                    self.record_run(report);
                    Err(fe)
                }
            }
        };
        // Consult this plan class's fallback circuit: once it has failed
        // its primary strategy [`BREAKER_OPEN_AFTER`] times in a row, skip
        // the doomed attempt and go straight to the interpreter so the
        // class stops paying double execution cost.
        let breaker = self.cache.breaker_check(&cache_key);
        if breaker == BreakerDecision::Open {
            report.push(format!("{strategy}: skipped, fallback circuit open"));
            return fall_back(report, "data-centric interpreter: ok", 0);
        }
        if breaker == BreakerDecision::Probe {
            report.push(format!("{strategy}: probing, fallback circuit half-open"));
        }
        let primary = isolate(|| self.execute_shape(db, physical, &ctx, level, &cert));
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
                self.cache.breaker_primary_ok(&cache_key);
                report.push(format!(
                    "{strategy}: ok ({done}/{total} morsels, {} B charged)",
                    ctx.gauge.used()
                ));
                self.record_run(report);
                self.attach_metrics(&mut res, physical, ops, &ctx, level, 0, t0, &cert);
                // Drift check: feed the measured selectivity back to the
                // cache so a materially mis-estimated entry re-plans.
                if level.counting() {
                    if let Some(obs) = res
                        .metrics
                        .as_ref()
                        .and_then(|m| m.operators.first())
                        .and_then(|o| o.observed_selectivity())
                    {
                        self.cache.observe(&cache_key, obs);
                        // Adaptive statistics: the measured selectivity also
                        // updates the catalog snapshot of the plan's primary
                        // filtered table, so *future* plans (not just this
                        // cache entry) are costed against reality.
                        if let Some(t) = primary_stats_table(&physical.shape) {
                            self.observe_selectivity(t, obs);
                        }
                    }
                }
                Ok(res)
            }
            Err(e) if e.is_retryable() => {
                report.push(format!("{strategy}: {e} ({done}/{total} morsels)"));
                if self.cache.breaker_fallback_ran(&cache_key) {
                    report.push("fallback circuit opened for this plan".into());
                }
                fall_back(report, "fell back to data-centric interpreter: ok", 1)
            }
            Err(e) => {
                report.push(format!("{strategy}: {e} ({done}/{total} morsels)"));
                self.record_run(report);
                Err(e)
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
        let deadline_at = r.deadline.map(|d| Instant::now() + d);
        // Direct physical execution has no data-centric fallback, so the
        // certificate carries no fallback reserve.
        let cert = self.certificate_for(db, plan, None)?;
        self.check_budget_feasible(r.memory_budget, &cert)?;
        let _permit = self.admit(r.priority, deadline_at)?;
        let ctx = self.exec_ctx(cancel, &r, deadline_at);
        gate.attach(&ctx);
        let level = r.metrics;
        let t0 = level.timing().then(Instant::now);
        let (mut res, ops) = isolate(|| self.execute_shape(db, plan, &ctx, level, &cert))?;
        self.attach_metrics(&mut res, plan, ops, &ctx, level, 0, t0, &cert);
        Ok(res)
    }

    /// Retry a failed query under the data-centric strategy: the
    /// row-at-a-time interpreter, which allocates no pullup temporaries.
    /// Its principal footprint — a qualifying-row-id vector — is charged
    /// against the same gauge, so a budgeted session cannot dodge its
    /// budget by failing over.
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

    /// EXPLAIN against a given database view: plan fresh (without touching
    /// the cache) and report whether the next execution would hit it. With
    /// the metrics of a run, `analyze`, it is that run's EXPLAIN ANALYZE.
    pub(crate) fn explain_for(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        analyze: Option<QueryMetrics>,
    ) -> Result<Explain, PlanError> {
        let physical = self.plan_with(db, plan, PlanHints::default())?;
        Ok(self.explain_planned(db, plan, &physical, analyze))
    }

    /// The EXPLAIN report of `plan` as planned into `physical`.
    fn explain_planned(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        physical: &PhysicalPlan,
        analyze: Option<QueryMetrics>,
    ) -> Explain {
        let key = self.cache_key(plan);
        let gens = table_generations(db, plan);
        let cached = self.cache.peek(&key, &gens);
        let (join_order, join_tree) = self.explain_join_tree(db, physical);
        let mut ex = Explain {
            shape: physical.describe(),
            strategy: physical.strategy.clone(),
            threads: self.threads,
            morsel_rows: self.morsel_rows,
            plan_source: Some(if cached { "cached" } else { "fresh" }.to_string()),
            cost_terms: physical.cost_terms.clone(),
            decisions: physical.decisions.clone(),
            runtime: self.last_run.lock().map(|r| r.clone()).unwrap_or_default(),
            analyze,
            join_order,
            join_tree,
            verification: Vec::new(),
        };
        ex.fill_join_observed();
        ex
    }

    /// Structured join-tree rendering for `EXPLAIN`: the probe order plus
    /// one entry per edge with its estimated cardinality. Direct edges
    /// estimate surviving *fact* rows cumulatively along the probe order;
    /// nested (chain) edges estimate their parent table's qualifying rows.
    fn explain_join_tree(
        &self,
        db: &Database,
        plan: &PhysicalPlan,
    ) -> (Option<String>, Vec<JoinEdgeExplain>) {
        let Some(join) = plan.join() else {
            return (None, Vec::new());
        };
        let edges = &join.edges;
        let order = format!(
            "{} ({})",
            edges
                .iter()
                .map(|e| e.parent.as_str())
                .collect::<Vec<_>>()
                .join(" -> "),
            join.order_method.name()
        );
        // Fact rows passing the fact's own filter, as the planner priced it.
        let mut alive = match &plan.estimates.profile {
            CostProfile::Join(p) => p.fact_rows as f64 * p.fact_selectivity,
            CostProfile::GroupJoin(p) => p.r_rows as f64 * p.r_selectivity,
            CostProfile::Agg(_) | CostProfile::Unmodelled => 0.0,
        };
        let mut tree = Vec::new();
        for e in edges {
            alive *= e.est_selectivity;
            tree.push(JoinEdgeExplain {
                parent: e.parent.clone(),
                fk_col: e.fk_col.clone(),
                depth: 0,
                build_side: e.strategy.name().to_string(),
                est_rows: alive.round() as u64,
                observed_rows: None,
            });
            explain_nested_edges(db, &e.children, 1, &mut tree);
        }
        (Some(order), tree)
    }

    /// Assemble and attach the [`QueryMetrics`] snapshot for a finished
    /// execution (no-op below [`MetricsLevel::Counters`]).
    #[allow(clippy::too_many_arguments)]
    fn attach_metrics(
        &self,
        res: &mut QueryResult,
        physical: &PhysicalPlan,
        operators: Vec<OpMetrics>,
        ctx: &ExecCtx,
        level: MetricsLevel,
        retries: u32,
        t0: Option<Instant>,
        cert: &PlanCertificate,
    ) {
        if !level.counting() {
            return;
        }
        let (predicted_cost, observed_cost) = self.cost_comparison(physical, &operators);
        res.metrics = Some(QueryMetrics {
            level,
            estimated_selectivity: physical.estimates.selectivity,
            operators,
            retries,
            bytes_charged: ctx.gauge.used() as u64,
            bytes_bound: Some(cert.peak_bytes_bound),
            elapsed_nanos: t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
            predicted_cost,
            observed_cost,
        });
    }

    /// Re-score the chosen strategy's cost formula with observed inputs:
    /// the profile the planner priced the plan with, its estimated fields
    /// overwritten by the counter-derived selectivities and the merged hash
    /// table's actual key count. Returns `(predicted, observed)` cycles when
    /// the plan has a modelled strategy decision (scan-aggregations,
    /// groupjoins and the join order; the semijoin chooser keys on build
    /// cardinality, which the planner knows exactly, so there is nothing to
    /// validate).
    fn cost_comparison(
        &self,
        plan: &PhysicalPlan,
        ops: &[OpMetrics],
    ) -> (Option<f64>, Option<f64>) {
        let edge_probe = |parent: &str| {
            let name = JoinEdge::probe_op(parent);
            ops.iter()
                .find(|o| o.name == name)
                .filter(|o| o.access.rows_in > 0)
        };
        let Shape::Agg(AggShape { edges, mode, .. }) = &plan.shape else {
            return (None, None);
        };
        match (&plan.estimates.profile, mode) {
            (CostProfile::Agg(profile), AggMode::By(strategy)) => {
                let score = |p: &AggProfile| {
                    observed::agg_cost_for(&choose_agg_mt(&self.params, p, self.threads), *strategy)
                };
                let predicted = score(profile);
                let Some(op) = ops.first() else {
                    return (predicted, None);
                };
                let mut seen = *profile;
                seen.selectivity = op.observed_selectivity().unwrap_or(seen.selectivity);
                if seen.group_keys.is_some() {
                    seen.group_keys = Some(op.ht.inserts as usize);
                }
                (predicted, score(&seen))
            }
            (CostProfile::GroupJoin(profile), AggMode::Join(strategy)) => {
                let score = |p: &GroupJoinProfile| {
                    observed::groupjoin_cost_for(
                        &choose_groupjoin_mt(&self.params, p, self.threads),
                        *strategy,
                    )
                };
                let predicted = score(profile);
                // The first operator is the one edge's build.
                let Some(build_op) = ops.first() else {
                    return (Some(predicted), None);
                };
                let mut seen = *profile;
                seen.s_selectivity = build_op
                    .observed_selectivity()
                    .unwrap_or(seen.s_selectivity);
                seen.join_match_prob = seen.s_selectivity;
                if let Some(op) = edges.first().and_then(|e| edge_probe(&e.parent)) {
                    seen.r_selectivity = op.access.rows_in as f64 / seen.r_rows.max(1) as f64;
                }
                (Some(predicted), Some(score(&seen)))
            }
            (CostProfile::Join(profile), _) => {
                let order: Vec<usize> = (0..profile.edges.len()).collect();
                let predicted = join_order_cost(&self.params, profile, &order);
                // Re-score the same order with the per-edge selectivities the
                // probe actually observed.
                let mut seen = profile.clone();
                let mut any = false;
                for (i, e) in seen.edges.iter_mut().enumerate() {
                    let Some(op) = edge_probe(&e.parent) else {
                        continue;
                    };
                    e.selectivity = op.access.rows_out as f64 / op.access.rows_in as f64;
                    if i == 0 && seen.fact_rows > 0 {
                        seen.fact_selectivity = op.access.rows_in as f64 / seen.fact_rows as f64;
                    }
                    any = true;
                }
                if !any {
                    return (Some(predicted), None);
                }
                (
                    Some(predicted),
                    Some(join_order_cost(&self.params, &seen, &order)),
                )
            }
            _ => (None, None),
        }
    }

    /// Cost-model profile of a multi-way join's direct edges, with the
    /// shape's estimated selectivities and membership-structure footprints.
    fn multijoin_profile(
        &self,
        db: &Database,
        fact: &str,
        fact_selectivity: f64,
        edges: &[JoinEdge],
    ) -> Option<JoinGraphProfile> {
        let fact_rows = db.table(fact).ok()?.len();
        let edges_p = edges
            .iter()
            .map(|e| {
                let parent_rows = db.table(&e.parent).map(|t| t.len()).unwrap_or(0);
                let has_fk_index = db.fk_index(fact, &e.fk_col, &e.parent).is_some();
                let build_bytes = match e.strategy {
                    SemiJoinStrategy::Hash => {
                        (((parent_rows as f64 * e.est_selectivity).ceil() as usize).max(1)) * 16
                    }
                    SemiJoinStrategy::PositionalBitmap(_) => {
                        PositionalBitmap::bytes_for(parent_rows)
                    }
                };
                JoinEdgeProfile {
                    parent: e.parent.clone(),
                    selectivity: e.est_selectivity,
                    has_fk_index,
                    build_bytes,
                }
            })
            .collect();
        Some(JoinGraphProfile {
            fact_rows,
            fact_selectivity,
            edges: edges_p,
        })
    }

    // -----------------------------------------------------------------
    // Planning
    // -----------------------------------------------------------------

    /// Plan a logical query, making every Fig. 2 decision via the cost
    /// models.
    pub(crate) fn plan_with(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        hints: PlanHints,
    ) -> Result<PhysicalPlan, PlanError> {
        // Peel result-level post-operators (ORDER BY / LIMIT) off the top;
        // they run over the materialized result of the core pipeline.
        let mut post = Vec::new();
        let mut core = plan;
        loop {
            match core {
                LogicalPlan::Limit { input, n } => {
                    post.push(PostOp::Limit { n: *n });
                    core = input;
                }
                LogicalPlan::OrderBy { input, keys } => {
                    if keys.is_empty() {
                        return Err(PlanError::Unsupported("empty ORDER BY key list".into()));
                    }
                    post.push(PostOp::Sort { keys: keys.clone() });
                    core = input;
                }
                _ => break,
            }
        }
        post.reverse(); // application order: innermost node applies first
        let mut physical = self.plan_core(db, core, hints)?;
        // ORDER BY keys must name output columns of the core pipeline.
        let out_cols = shape_output_columns(&physical.shape);
        for p in &post {
            match p {
                PostOp::Sort { keys } => {
                    for k in keys {
                        if !out_cols.contains(&k.column) {
                            return Err(PlanError::UnknownResultColumn(k.column.clone()));
                        }
                    }
                    let est_rows = physical.estimates.result_rows;
                    let cost = sort_cost(&self.params, est_rows, keys.len());
                    physical.cost_terms.push(("sort.rows".to_string(), cost));
                    physical.decisions.push(format!(
                        "order by {} key(s) over ~{est_rows} result rows ({cost:.2e} cyc)",
                        keys.len()
                    ));
                }
                PostOp::Limit { n } => {
                    physical
                        .decisions
                        .push(format!("limit {n} (prefix truncation)"));
                    physical
                        .cost_terms
                        .push(("limit.rows".to_string(), *n as f64));
                }
            }
        }
        physical.post = post;
        Ok(physical)
    }

    /// Plan the core pipeline (everything under the post-operators).
    fn plan_core(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        hints: PlanHints,
    ) -> Result<PhysicalPlan, PlanError> {
        if let LogicalPlan::Window {
            input,
            partition_by,
            order_by,
            frame,
            funcs,
            select,
        } = plan
        {
            let (table, filter, edges) = extract_join_tree(input)?;
            if !edges.is_empty() {
                return Err(PlanError::Unsupported(
                    "window input must be scan(+filter)".into(),
                ));
            }
            return self.plan_window(
                db,
                &table,
                filter,
                partition_by.as_deref(),
                order_by,
                *frame,
                funcs,
                select,
                hints,
            );
        }
        let LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } = plan
        else {
            return Err(PlanError::Unsupported(
                "top-level node must be an aggregation or window".into(),
            ));
        };
        if aggs.is_empty() {
            return Err(PlanError::Unsupported("empty aggregate list".into()));
        }
        self.plan_agg(db, input, group_by.as_deref(), aggs, hints)
    }

    /// Plan an aggregation over a scan restricted by zero or more FK join
    /// edges. The cost question depends on the edge count — which
    /// scan-aggregation strategy ([`Self::decide_scan_agg`]), or which probe
    /// order, membership structures and sink ([`Self::decide_join_agg`]) —
    /// but validation before it and the tail after it (group table, tile
    /// program, grouped sink) do not.
    fn plan_agg(
        &self,
        db: &Database,
        input: &LogicalPlan,
        group_by: Option<&str>,
        aggs: &[AggSpec],
        hints: PlanHints,
    ) -> Result<PhysicalPlan, PlanError> {
        let (table_name, filter, raw_edges) = extract_join_tree(input)?;
        if let (Some(g), Some(first)) = (group_by, raw_edges.first()) {
            // The interpreter oracle draws the same line.
            if raw_edges.len() > 1 || !first.children.is_empty() {
                return Err(PlanError::Unsupported(format!(
                    "group by {g} over a multi-way join"
                )));
            }
            if g != first.fk_col {
                return Err(PlanError::Unsupported(format!(
                    "group by {g} over a semijoin (only the FK column is supported)"
                )));
            }
        }
        let table = db.table(&table_name)?;
        if let Some(f) = &filter {
            f.validate(table)?;
        }
        for a in aggs {
            a.expr.validate(table)?;
        }
        if let (Some(g), true) = (group_by, raw_edges.is_empty()) {
            if table.column(g).is_none() {
                return Err(PlanError::UnknownColumn {
                    table: table_name,
                    column: g.to_string(),
                });
            }
        }
        let mut q = AggQuery {
            table,
            filter: filter.as_ref(),
            group_by,
            aggs,
            has_minmax: aggs
                .iter()
                .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max)),
            hints,
            decisions: Vec::new(),
            cost_terms: Vec::new(),
        };
        let (edges, order_method, mode, estimates) = if raw_edges.is_empty() {
            let (strategy, estimates) = self.decide_scan_agg(&mut q)?;
            let mode = AggMode::By(strategy);
            (Vec::new(), JoinOrderMethod::Dp, mode, estimates)
        } else {
            self.decide_join_agg(db, &mut q, raw_edges)?
        };
        let AggQuery {
            mut decisions,
            cost_terms,
            ..
        } = q;
        // Statistics shortcut: an unfiltered, ungrouped COUNT/MIN/MAX list
        // whose every answer is exact in a fresh catalog snapshot skips the
        // scan entirely (the shape is kept for EXPLAIN and verification).
        let shortcut = match (edges.is_empty(), &filter, group_by) {
            (true, None, None) => self.stats_shortcut(db, &table_name, aggs, &mut decisions),
            _ => None,
        };
        let group_table = if let Some(g) = group_by {
            let generation = table.generation();
            let (domain, domain_generation, fk_parent_rows) = match edges.first() {
                // Dictionary codes are `0..cardinality`; any other column's
                // domain is the exact min/max of a fresh statistics snapshot.
                None => {
                    let domain = match table.column(g) {
                        Some(ColumnData::Dict(d)) => Ok((0, d.cardinality() as i64 - 1)),
                        _ => self
                            .stats_for(db, &table_name)
                            .filter(|s| s.fresh_for(generation))
                            .and_then(|s| s.column(g).map(|c| (c.min, c.max)))
                            .ok_or("no fresh statistics give the key domain"),
                    };
                    (domain, generation, None)
                }
                // FK keys are parent positions — exactly `0..parent rows`
                // when a registered index has validated every one of them.
                Some(edge) => {
                    let parent_t = db.table(&edge.parent)?;
                    let domain = db
                        .fk_index(&table_name, g, &edge.parent)
                        .map(|idx| (0, idx.parent_len() as i64 - 1))
                        .ok_or("no FK index validates the key domain");
                    (domain, parent_t.generation(), Some(parent_t.len()))
                }
            };
            choose_group_table(
                domain,
                (generation, domain_generation),
                fk_parent_rows,
                estimates.result_rows,
                aggs.len(),
                &mut decisions,
            )
        } else {
            GroupTableRepr::Hash
        };
        // A grouped join's key is the FK slice its edge is probed through,
        // so the program lowers none.
        let key = group_by.filter(|_| edges.is_empty());
        let grouped = group_by.is_some();
        let program = Arc::new(TileProgram::lower_agg(
            table,
            filter.as_ref(),
            key,
            aggs,
            grouped,
        )?);
        let group_sink = grouped.then(|| group_sink(&program, aggs));
        Ok(PhysicalPlan::new(
            Shape::Agg(AggShape {
                table: table_name,
                filter,
                edges,
                order_method,
                group: group_by.map(str::to_string),
                aggs: aggs.to_vec(),
                mode,
                group_sink,
                group_table,
                program,
            }),
            decisions,
            cost_terms,
            shortcut,
            estimates,
        ))
    }

    /// The scan aggregation's one decision (§ III-A, III-B): hybrid, value
    /// masking or key masking, by the cost model unless min/max force hybrid
    /// or the session pins a strategy.
    fn decide_scan_agg(&self, q: &mut AggQuery<'_>) -> Result<(AggStrategy, Estimates), PlanError> {
        let AggQuery {
            table,
            group_by,
            aggs,
            has_minmax,
            ..
        } = *q;
        let filter_selectivity = filter_selectivity(table, q.filter, q.hints, &mut q.decisions);
        let selectivity = filter_selectivity.unwrap_or(1.0);
        let group_keys = group_by.map(|g| stats::estimate_distinct(table, g));
        let (comp, n_cols) = agg_comp_cols(aggs, group_by);
        let profile = AggProfile {
            rows: table.len(),
            selectivity,
            comp,
            n_cols,
            group_keys,
            n_aggs: aggs.len(),
        };
        let choice = choose_agg_mt(&self.params, &profile, self.threads);
        // The forced path must still be priced: the verifier cross-checks
        // every strategy against its cost term.
        q.cost_terms.push((
            AggStrategy::Hybrid.cost_term().to_string(),
            choice.cost_hybrid,
        ));
        let chosen = if has_minmax {
            q.decisions
                .push("hybrid forced: min/max require extra masking bookkeeping (§ III-A)".into());
            AggStrategy::Hybrid
        } else {
            q.cost_terms.push((
                AggStrategy::ValueMasking.cost_term().to_string(),
                choice.cost_value_masking,
            ));
            if let Some(km) = choice.cost_key_masking {
                q.cost_terms
                    .push((AggStrategy::KeyMasking.cost_term().to_string(), km));
            }
            q.decisions.push(format!(
                "σ={selectivity:.2} → {} (hybrid={:.2e}, vm={:.2e}{})",
                choice.explanation,
                choice.cost_hybrid,
                choice.cost_value_masking,
                choice
                    .cost_key_masking
                    .map(|c| format!(", km={c:.2e}"))
                    .unwrap_or_default(),
            ));
            choice.strategy
        };
        let strategy = match self.strategies.agg {
            Some(pin) => {
                if has_minmax && pin != AggStrategy::Hybrid {
                    return Err(PlanError::Unsupported(format!(
                        "cannot pin {} aggregation: min/max require hybrid",
                        pin.name()
                    )));
                }
                q.decisions
                    .push(format!("strategy pinned to {} by the session", pin.name()));
                pin
            }
            None => chosen,
        };
        let estimates = Estimates {
            selectivity: filter_selectivity,
            result_rows: group_keys.unwrap_or(1),
            // min/max force hybrid without consulting the chooser.
            profile: if has_minmax {
                CostProfile::Unmodelled
            } else {
                CostProfile::Agg(profile)
            },
        };
        Ok((strategy, estimates))
    }

    /// The one result row of an aggregate list answerable from catalog
    /// statistics alone: `COUNT` is the exact row count, `MIN`/`MAX` on a
    /// bare column are the exact column bounds. Any other aggregate — or a
    /// stale/missing snapshot — declines.
    fn stats_shortcut(
        &self,
        db: &Database,
        table: &str,
        aggs: &[AggSpec],
        decisions: &mut Vec<String>,
    ) -> Option<Vec<i64>> {
        let generation = db.generation(table)?;
        let s = self.stats_for(db, table)?;
        if !s.fresh_for(generation) {
            return None;
        }
        let mut row = Vec::with_capacity(aggs.len());
        for a in aggs {
            let v = match (a.func, &a.expr) {
                (AggFunc::Count, _) => s.rows as i64,
                // Zero-row semantics match execution: min/max are 0 when
                // nothing qualifies.
                (AggFunc::Min, Expr::Col(c)) => s.column(c)?.min,
                (AggFunc::Max, Expr::Col(c)) => s.column(c)?.max,
                _ => return None,
            };
            row.push(v);
        }
        decisions.push(format!(
            "answered from catalog statistics (stats mode {}, generation {generation}): scan skipped",
            self.stats_mode.name()
        ));
        Some(row)
    }

    /// Plan a window pipeline: validate the surface, then let the chooser
    /// pick between the sequential frame scan and conditional re-evaluation
    /// (the same access trade as § III-A, over sorted frames).
    #[allow(clippy::too_many_arguments)]
    fn plan_window(
        &self,
        db: &Database,
        table_name: &str,
        filter: Option<Expr>,
        partition_by: Option<&str>,
        order_by: &[SortKey],
        frame: FrameSpec,
        funcs: &[WindowFnSpec],
        select: &[String],
        hints: PlanHints,
    ) -> Result<PhysicalPlan, PlanError> {
        let table = db.table(table_name)?;
        if let Some(f) = &filter {
            f.validate(table)?;
        }
        for col in select
            .iter()
            .map(String::as_str)
            .chain(order_by.iter().map(|k| k.column.as_str()))
            .chain(partition_by)
        {
            if table.column(col).is_none() {
                return Err(PlanError::UnknownColumn {
                    table: table_name.to_string(),
                    column: col.to_string(),
                });
            }
        }
        let mut seen: Vec<&str> = select.iter().map(String::as_str).collect();
        for f in funcs {
            if let Some(e) = &f.expr {
                e.validate(table)?;
            }
            if seen.contains(&f.name.as_str()) {
                return Err(PlanError::Unsupported(format!(
                    "duplicate output column {} in the window select list",
                    f.name
                )));
            }
            seen.push(&f.name);
        }
        let mut decisions = Vec::new();
        let mut cost_terms = Vec::new();
        let filter_selectivity = filter_selectivity(table, filter.as_ref(), hints, &mut decisions);
        let selectivity = filter_selectivity.unwrap_or(1.0);
        let strategy = if funcs.is_empty() {
            decisions.push("projection: no window functions to frame".into());
            // Price the degenerate projection as one sequential pass so the
            // verifier's strategy/cost-term cross-check still holds.
            cost_terms.push((
                WindowStrategy::SequentialFrameScan.cost_term().to_string(),
                table.len() as f64 * selectivity,
            ));
            WindowStrategy::SequentialFrameScan
        } else {
            let profile = WindowProfile {
                rows: table.len(),
                selectivity,
                partitions: partition_by
                    .map(|p| stats::estimate_distinct(table, p))
                    .unwrap_or(1)
                    .max(1),
                frame_rows: match frame {
                    FrameSpec::Preceding(k) => Some(k),
                    FrameSpec::WholePartition | FrameSpec::UnboundedPreceding => None,
                },
                n_funcs: funcs.len(),
            };
            let choice = swole_cost::choose::choose_window(&self.params, &profile);
            cost_terms.push((
                WindowStrategy::SequentialFrameScan.cost_term().to_string(),
                choice.cost_seq_frame,
            ));
            cost_terms.push((
                WindowStrategy::ConditionalReeval.cost_term().to_string(),
                choice.cost_reeval,
            ));
            decisions.push(format!(
                "σ={selectivity:.2} → {} (seq-frame={:.2e}, reeval={:.2e})",
                choice.explanation, choice.cost_seq_frame, choice.cost_reeval,
            ));
            match self.strategies.window {
                Some(pin) => {
                    decisions.push(format!(
                        "window strategy pinned to {} by the session",
                        pin.name()
                    ));
                    pin
                }
                None => choice.strategy,
            }
        };
        // The sort feeding the frames is priced like the result sort: keys
        // are (partition, order) and it runs over the qualifying rows.
        if !funcs.is_empty() || !order_by.is_empty() {
            let est_rows = ((table.len() as f64) * selectivity).ceil() as usize;
            let n_keys = order_by.len() + usize::from(partition_by.is_some());
            let cost = sort_cost(&self.params, est_rows, n_keys.max(1));
            cost_terms.push(("window.sort".to_string(), cost));
        }
        let scan_program = Arc::new(TileProgram::lower(table, filter.as_ref(), &[])?);
        let gather_cols: Vec<Expr> = partition_by
            .into_iter()
            .chain(order_by.iter().map(|k| k.column.as_str()))
            .chain(select.iter().map(String::as_str))
            .map(Expr::col)
            .collect();
        let gather_wants: Vec<Want<'_>> = gather_cols
            .iter()
            .chain(funcs.iter().filter_map(|f| f.expr.as_ref()))
            .map(Want::Reg)
            .collect();
        let gather_program = Arc::new(TileProgram::lower(table, None, &gather_wants)?);
        Ok(PhysicalPlan::new(
            Shape::WindowScan(WindowShape {
                table: table_name.to_string(),
                filter,
                partition_by: partition_by.map(str::to_string),
                order_by: order_by.to_vec(),
                frame,
                funcs: funcs.to_vec(),
                select: select.to_vec(),
                strategy,
                scan_program,
                gather_program,
            }),
            decisions,
            cost_terms,
            None,
            Estimates {
                selectivity: filter_selectivity,
                result_rows: (table.len() as f64 * selectivity).ceil().max(1.0) as usize,
                profile: CostProfile::Unmodelled,
            },
        ))
    }

    /// The decisions of an FK join aggregation over one or more edges:
    /// estimate per-edge selectivities from statistics and sampling, choose
    /// the probe order (exact subset DP up to [`swole_cost::JOIN_DP_LIMIT`]
    /// direct edges, greedy rank beyond, session pin override), pick each
    /// edge's membership structure with the semijoin cost model, and decide
    /// the sink: a scalar aggregation (masked probe or not), or — grouped by
    /// the FK of the join's one edge — the groupjoin or its
    /// eager-aggregation rewrite (§ III-E).
    fn decide_join_agg(
        &self,
        db: &Database,
        q: &mut AggQuery<'_>,
        raw_edges: Vec<RawEdge>,
    ) -> Result<(Vec<JoinEdge>, JoinOrderMethod, AggMode, Estimates), PlanError> {
        let (fact_t, fact, aggs) = (q.table, q.table.name(), q.aggs);
        let single_edge = matches!(&raw_edges[..], [e] if e.children.is_empty());
        // The plan cache's drift feedback is the observed selectivity of the
        // first build; only a one-edge join says which edge that was.
        let drift = q.hints.selectivity.filter(|_| single_edge);
        let mut edges = Vec::with_capacity(raw_edges.len());
        for e in raw_edges {
            edges.push(self.lower_join_edge(db, fact, e, drift, &mut q.decisions)?);
        }
        let fact_sel = match q.filter {
            Some(f) => stats::estimate_selectivity(fact_t, f),
            None => 1.0,
        };
        let profile = self
            .multijoin_profile(db, fact, fact_sel, &edges)
            .expect("fact table resolved above");
        let choice = choose_join_order(&self.params, &profile);
        let (order_idx, method) = match &self.strategies.join_order {
            Some(pin) => {
                let mut idx = Vec::with_capacity(pin.len());
                for name in pin {
                    let Some(i) = edges.iter().position(|e| &e.parent == name) else {
                        return Err(PlanError::Unsupported(format!(
                            "join-order pin names {name}, which is not a build side of this query"
                        )));
                    };
                    if idx.contains(&i) {
                        return Err(PlanError::Unsupported(format!(
                            "join-order pin names {name} twice"
                        )));
                    }
                    idx.push(i);
                }
                if idx.len() != edges.len() {
                    return Err(PlanError::Unsupported(format!(
                        "join-order pin must name every build side ({} of {} named)",
                        idx.len(),
                        edges.len()
                    )));
                }
                q.decisions.push(format!(
                    "join order pinned by the session: {}",
                    pin.join(" -> ")
                ));
                (idx, JoinOrderMethod::Pinned)
            }
            None => (choice.order.clone(), choice.method),
        };
        let chosen_cost = join_order_cost(&self.params, &profile, &order_idx);
        q.decisions.push(format!(
            "σ_fact={fact_sel:.2}, {} → probe order {} ({})",
            choice.explanation,
            order_idx
                .iter()
                .map(|&i| edges[i].parent.as_str())
                .collect::<Vec<_>>()
                .join(" -> "),
            method.name(),
        ));
        q.cost_terms.extend([
            ("join.order".to_string(), chosen_cost),
            ("join.order.best".to_string(), choice.cost),
            ("join.order.worst".to_string(), choice.worst_cost),
        ]);
        let edges: Vec<JoinEdge> = order_idx.iter().map(|&i| edges[i].clone()).collect();
        // The first operator of a join is the first edge's build. A
        // multi-edge re-plan cannot say which edge a drift hint observed;
        // recording it as the estimate keeps the cache from invalidating
        // the re-plan over the same measurement again.
        let selectivity = q
            .hints
            .selectivity
            .or_else(|| edges.first().map(|e| e.est_selectivity));
        let Some(g) = q.group_by else {
            // A masked probe ANDs the bitmap bit into the filter mask and
            // aggregates every lane, which value masking has no min/max sink
            // for. Same VM-model threshold as the chooser's build decision: it
            // wins unless the fact predicate is very selective.
            let maskable = single_edge
                && matches!(edges[0].strategy, SemiJoinStrategy::PositionalBitmap(_))
                && !q.has_minmax;
            let masked = maskable && fact_sel >= 0.125;
            if maskable {
                q.decisions.push(format!(
                    "σ_fact={fact_sel:.2} → {} probe",
                    if masked { "masked" } else { "selection-vector" }
                ));
            }
            let estimates = Estimates {
                selectivity,
                result_rows: 1,
                profile: CostProfile::Join(JoinGraphProfile {
                    edges: order_idx
                        .iter()
                        .map(|&i| profile.edges[i].clone())
                        .collect(),
                    ..profile
                }),
            };
            return Ok((edges, method, AggMode::Probe { masked }, estimates));
        };
        let edge = &edges[0];
        let parent_rows = db.table(&edge.parent)?.len();
        let (comp, _) = agg_comp_cols(aggs, Some(g));
        let gj_profile = GroupJoinProfile {
            r_rows: fact_t.len(),
            r_selectivity: fact_sel,
            s_rows: parent_rows,
            s_selectivity: edge.est_selectivity,
            join_match_prob: edge.est_selectivity,
            group_keys: parent_rows,
            comp,
            n_aggs: aggs.len(),
        };
        // Eager aggregation upserts every probe lane unmasked: it has
        // no place for a probe-side filter or a min/max state.
        let forced = q.has_minmax || q.filter.is_some();
        let strategy =
            self.choose_group_sink(&gj_profile, forced, &mut q.decisions, &mut q.cost_terms)?;
        let estimates = Estimates {
            selectivity,
            result_rows: parent_rows,
            profile: CostProfile::GroupJoin(gj_profile),
        };
        Ok((edges, method, AggMode::Join(strategy), estimates))
    }

    /// The grouped sink's one decision: the groupjoin or its eager-aggregation
    /// rewrite (§ III-E), by the cost model unless the query forces the
    /// groupjoin (`forced`) or the session pins a strategy.
    fn choose_group_sink(
        &self,
        profile: &GroupJoinProfile,
        forced: bool,
        decisions: &mut Vec<String>,
        cost_terms: &mut Vec<(String, f64)>,
    ) -> Result<GroupJoinStrategy, PlanError> {
        let choice = choose_groupjoin_mt(&self.params, profile, self.threads);
        // The forced path is still priced: the verifier cross-checks every
        // strategy against its cost term.
        cost_terms.push((
            GroupJoinStrategy::GroupJoin.cost_term().to_string(),
            choice.cost_groupjoin,
        ));
        let chosen = if forced {
            decisions.push(
                "groupjoin forced: min/max and probe-side filters need the selection vector".into(),
            );
            GroupJoinStrategy::GroupJoin
        } else {
            cost_terms.push((
                GroupJoinStrategy::EagerAggregation.cost_term().to_string(),
                choice.cost_eager,
            ));
            decisions.push(format!(
                "σ_S={:.2} → {} (groupjoin={:.2e}, eager={:.2e})",
                profile.s_selectivity, choice.explanation, choice.cost_groupjoin, choice.cost_eager,
            ));
            choice.strategy
        };
        match self.strategies.groupjoin {
            Some(pin) if forced && pin != GroupJoinStrategy::GroupJoin => {
                Err(PlanError::Unsupported(format!(
                    "cannot pin {}: min/max and probe-side filters require groupjoin",
                    pin.name()
                )))
            }
            Some(pin) => {
                decisions.push("groupjoin strategy pinned by the session".to_string());
                Ok(pin)
            }
            None => Ok(chosen),
        }
    }

    /// Lower one raw join edge: validate the FK path and the parent
    /// filter, estimate the fraction of probe rows surviving the edge (own
    /// filter × nested children; `drift`, the selectivity the plan cache
    /// observed for this edge's build, overrides the estimate, then adaptive
    /// statistics when available), and choose the membership structure.
    fn lower_join_edge(
        &self,
        db: &Database,
        child: &str,
        e: RawEdge,
        drift: Option<f64>,
        decisions: &mut Vec<String>,
    ) -> Result<JoinEdge, PlanError> {
        let parent_t = db.table(&e.parent)?;
        if let Some(f) = &e.parent_filter {
            f.validate(parent_t)?;
        }
        self.fk_source(db, child, &e.fk_col, &e.parent)?;
        let mut children = Vec::with_capacity(e.children.len());
        for c in e.children {
            children.push(self.lower_join_edge(db, &e.parent, c, None, decisions)?);
        }
        let own = match &e.parent_filter {
            Some(f) => {
                let sampled = stats::estimate_selectivity(parent_t, f);
                let adaptive = (self.stats_mode == stats::StatsMode::Adaptive)
                    .then(|| self.stats_for(db, &e.parent)?.observed_selectivity)
                    .flatten();
                match (drift, adaptive) {
                    (Some(observed), _) => {
                        decisions.push(format!(
                            "σ({}) overridden to {observed:.4} (observed after drift)",
                            e.parent
                        ));
                        observed
                    }
                    (None, Some(obs)) => {
                        decisions.push(format!(
                            "σ({}) = {obs:.4} from adaptive statistics (sampled {sampled:.4})",
                            e.parent
                        ));
                        obs
                    }
                    (None, None) => sampled,
                }
            }
            None => 1.0,
        };
        let est_selectivity = children
            .iter()
            .fold(own, |s, c| s * c.est_selectivity)
            .clamp(0.0, 1.0);
        let has_fk_index = db.fk_index(child, &e.fk_col, &e.parent).is_some();
        let choice = choose_semijoin(
            &self.params,
            &SemiJoinProfile {
                build_rows: parent_t.len(),
                build_selectivity: est_selectivity,
                has_fk_index,
            },
        );
        let strategy = if let Some((_, pin)) = self
            .strategies
            .build_sides
            .iter()
            .find(|(t, _)| t == &e.parent)
        {
            decisions.push(format!("build side {} pinned by the session", e.parent));
            *pin
        } else if let Some(pin) = self.strategies.semijoin {
            decisions.push("semijoin strategy pinned by the session".to_string());
            pin
        } else {
            choice.strategy
        };
        decisions.push(format!(
            "edge {child}.{} -> {} σ={est_selectivity:.2}: {}",
            e.fk_col, e.parent, choice.explanation
        ));
        let parent_program = Arc::new(TileProgram::lower(parent_t, e.parent_filter.as_ref(), &[])?);
        Ok(JoinEdge {
            parent: e.parent,
            parent_filter: e.parent_filter,
            parent_program,
            fk_col: e.fk_col,
            strategy,
            children,
            est_selectivity,
        })
    }

    /// The positional FK mapping probe→parent: the registered FK index if
    /// present, otherwise the raw `u32` FK column (dense parent keys) — as
    /// an owned snapshot execution can pin: shared-pool worker closures
    /// outlive the submitting call stack, so they must not borrow from the
    /// database guard. Planning resolves it too, to validate the edge.
    fn fk_source(
        &self,
        db: &Database,
        child: &str,
        fk_col: &str,
        parent: &str,
    ) -> Result<FkSource, PlanError> {
        if let Some(idx) = db.fk_index_arc(child, fk_col, parent) {
            return Ok(FkSource::Index(idx));
        }
        let t = db.table_arc(child)?;
        let col = t
            .column_index(fk_col)
            .ok_or_else(|| PlanError::UnknownColumn {
                table: child.to_string(),
                column: fk_col.to_string(),
            })?;
        if t.column_at(col).as_u32().is_none() {
            return Err(PlanError::MissingFkIndex {
                child: child.to_string(),
                fk_column: fk_col.to_string(),
            });
        }
        Ok(FkSource::Column(t, col))
    }

    /// Pin every table and FK column of a join forest as `Arc` snapshots
    /// for the query's lifetime, recursing through chain edges (each
    /// nested edge's FK lives on its *parent* table, i.e. the child of
    /// that nested edge).
    fn bind_join_edges<'e>(
        &self,
        db: &Database,
        child: &str,
        edges: &'e [JoinEdge],
    ) -> Result<Vec<BoundEdge<'e>>, PlanError> {
        edges
            .iter()
            .map(|e| {
                Ok(BoundEdge {
                    edge: e,
                    parent_t: db.table_arc(&e.parent)?,
                    fk: self.fk_source(db, child, &e.fk_col, &e.parent)?,
                    children: self.bind_join_edges(db, &e.parent, &e.children)?,
                })
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // Execution
    // -----------------------------------------------------------------

    /// Execute a physical plan against an execution context, returning the
    /// result plus per-operator metrics (empty below
    /// [`MetricsLevel::Counters`]). Planner/executor drift (a table or FK
    /// index dropped after planning) propagates as a [`PlanError`] instead
    /// of panicking. Input tables and FK indexes are pinned as `Arc`
    /// snapshots for the query's lifetime.
    pub(crate) fn execute_shape(
        &self,
        db: &Database,
        plan: &PhysicalPlan,
        ctx: &Arc<ExecCtx>,
        level: MetricsLevel,
        cert: &PlanCertificate,
    ) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
        // Upfront cooperative check: zero-morsel inputs still observe an
        // already-expired deadline or cancelled handle.
        ctx.check()?;
        if let Some(row) = &plan.shortcut {
            // Statistics-backed answer: the planner proved the result from
            // the catalog, so no table access happens at all.
            let mut res = QueryResult::new(shape_output_columns(&plan.shape), vec![row.clone()]);
            let mut ops = Vec::new();
            if level.counting() {
                let mut op = OpMetrics::named("stats-shortcut");
                op.access.rows_out = 1;
                ops.push(op);
            }
            post_process(&plan.post, &mut res, &mut ops, level, ctx)?;
            return Ok((res, ops));
        }
        let opts = ExecOpts {
            executor: &self.executor,
            threads: self.threads,
            morsel_rows: self.morsel_rows,
            level,
            overflow_proved: cert.all_sites_overflow_safe(),
        };
        match &plan.shape {
            Shape::Agg(shape) => {
                let table = &db.table_arc(&shape.table)?;
                let edges = &self.bind_join_edges(db, &shape.table, &shape.edges)?;
                // The tables a dense key domain is a fact about: the scanned
                // one, and the first edge's parent when the key is its FK.
                let domain_t = edges.first().map_or(table, |e| &e.parent_t);
                let group_table = shape
                    .group_table
                    .at((table.generation(), domain_t.generation()));
                let stage = AggStage {
                    shape,
                    table,
                    edges,
                };
                let (mut res, mut ops) = exec_agg(stage, group_table, opts, ctx)?;
                post_process(&plan.post, &mut res, &mut ops, level, ctx)?;
                Ok((res, ops))
            }
            // The window pipeline holds its output as columns and applies
            // `post` itself, before it assembles rows.
            Shape::WindowScan(shape) => {
                exec_window(&db.table_arc(&shape.table)?, shape, &plan.post, opts, ctx)
            }
        }
    }
}

/// The group table of a grouped stage: the dense array when the catalog
/// gives the key `domain` exactly (`(min, max)`, read from tables at
/// `generations`; otherwise why it is unknown) and the array is no larger
/// than the hash table it replaces, sized as the executor sizes it
/// (`fk_parent_rows`) and grown to the planner's `keys` estimate; the hash
/// table otherwise. Derived from catalog facts only, and recorded as a
/// decision.
fn choose_group_table(
    domain: Result<(i64, i64), &'static str>,
    generations: (u64, u64),
    fk_parent_rows: Option<usize>,
    keys: usize,
    n_aggs: usize,
    decisions: &mut Vec<String>,
) -> GroupTableRepr {
    let dense = domain.and_then(|(min, max)| {
        let slots =
            DenseAggTable::slots_for(min, max).ok_or("the key domain is empty or too wide")?;
        Ok((min, max, DenseAggTable::bytes_for(slots, n_aggs)))
    });
    let hash_bytes = AggTable::grown_bytes(fk_parent_rows, keys, n_aggs);
    let (repr, line) = match dense {
        Ok((min, max, bytes)) if bytes <= hash_bytes => (
            GroupTableRepr::Dense {
                min,
                max,
                generations,
            },
            format!("dense [{min}..{max}], {bytes} B/worker"),
        ),
        Ok((min, max, bytes)) => (
            GroupTableRepr::Hash,
            format!(
                "hash (sparse domain: dense [{min}..{max}] is {bytes} B, \
                 over the {hash_bytes} B of a hash table for ~{keys} keys)"
            ),
        ),
        Err(why) => (GroupTableRepr::Hash, format!("hash ({why})")),
    };
    decisions.push(format!("group table: {line}"));
    repr
}

/// σ of a scan's own filter as the planner prices it: what the plan cache
/// observed when this is a re-plan after drift, the sample's estimate
/// otherwise. `None` without a filter.
fn filter_selectivity(
    table: &Table,
    filter: Option<&Expr>,
    hints: PlanHints,
    decisions: &mut Vec<String>,
) -> Option<f64> {
    let filter = filter?;
    Some(match hints.selectivity {
        Some(observed) => {
            decisions.push(format!(
                "σ overridden to {observed:.4} (observed after drift)"
            ));
            observed
        }
        None => stats::estimate_selectivity(table, filter),
    })
}

/// The `comp` estimate and distinct-column count of an aggregate list, as
/// the aggregation and groupjoin choosers' profiles take them.
fn agg_comp_cols(aggs: &[AggSpec], group_by: Option<&str>) -> (f64, usize) {
    let mut cols: Vec<String> = Vec::new();
    for a in aggs {
        for c in a.expr.columns() {
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
    }
    let comp: f64 = aggs.iter().map(|a| a.expr.comp_cycles() + 0.5).sum();
    (comp, cols.len() + group_by.map(|_| 1).unwrap_or(0))
}

/// What the data-centric fallback charges for its row-id vector, 8 bytes
/// per base-table row scanned. A certificate's peak bound reserves it: gauge
/// charges are held to completion, so a failed primary can coexist with it.
fn fallback_bytes(db: &Database, plan: &LogicalPlan) -> u64 {
    let mut rows = 0usize;
    plan.visit(&mut |node| {
        if let LogicalPlan::Scan { table } = node {
            rows = rows.saturating_add(db.table(table).map(|t| t.len()).unwrap_or(0));
        }
    });
    rows.saturating_mul(8) as u64
}

/// Output column names of a planned core shape, for validating post-op
/// sort keys at plan time.
fn shape_output_columns(shape: &Shape) -> Vec<String> {
    match shape {
        Shape::Agg(AggShape { group, aggs, .. }) => group
            .iter()
            .cloned()
            .chain(aggs.iter().map(|a| a.name.clone()))
            .collect(),
        Shape::WindowScan(WindowShape { select, funcs, .. }) => select
            .iter()
            .cloned()
            .chain(funcs.iter().map(|f| f.name.clone()))
            .collect(),
    }
}

/// A validated aggregation as the decision halves of
/// [`EngineInner::plan_agg`] read it, with the trail they append to.
struct AggQuery<'a> {
    table: &'a Table,
    filter: Option<&'a Expr>,
    group_by: Option<&'a str>,
    aggs: &'a [AggSpec],
    has_minmax: bool,
    hints: PlanHints,
    decisions: Vec<String>,
    cost_terms: Vec<(String, f64)>,
}

/// One edge of a join graph as extracted from the logical plan, before
/// selectivity estimation and strategy choice.
struct RawEdge {
    parent: String,
    parent_filter: Option<Expr>,
    fk_col: String,
    children: Vec<RawEdge>,
}

/// Decompose a pipeline's input — a nested semijoin tree — into its join
/// graph: the base table, the merged filter over the base's own columns
/// (filters below, between and above the semijoins alike), and the edges
/// hanging off the base (each recursively carrying its own chain edges).
/// Nodes other than scan/filter/semijoin are unsupported.
fn extract_join_tree(
    plan: &LogicalPlan,
) -> Result<(String, Option<Expr>, Vec<RawEdge>), PlanError> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let (table, filter, edges) = extract_join_tree(input)?;
            let merged = match filter {
                Some(f) => f.and(predicate.clone()),
                None => predicate.clone(),
            };
            Ok((table, Some(merged), edges))
        }
        LogicalPlan::Scan { table } => Ok((table.clone(), None, Vec::new())),
        LogicalPlan::SemiJoin {
            input,
            build,
            fk_col,
        } => {
            let (table, filter, mut edges) = extract_join_tree(input)?;
            let (parent, parent_filter, children) = extract_join_tree(build)?;
            edges.push(RawEdge {
                parent,
                parent_filter,
                fk_col: fk_col.clone(),
                children,
            });
            Ok((table, filter, edges))
        }
        other => Err(PlanError::Unsupported(format!(
            "aggregation or window over {other:?}"
        ))),
    }
}

/// The table whose filter drives the plan's *first* operator — the one an
/// observed selectivity is attributed to under adaptive statistics.
fn primary_stats_table(shape: &Shape) -> Option<&str> {
    match shape {
        // A join's first operator is its first edge's build.
        Shape::Agg(AggShape { edges, .. }) if !edges.is_empty() => edges[0]
            .parent_filter
            .as_ref()
            .map(|_| edges[0].parent.as_str()),
        Shape::Agg(AggShape { table, filter, .. })
        | Shape::WindowScan(WindowShape { table, filter, .. }) => {
            filter.as_ref().map(|_| table.as_str())
        }
    }
}

/// Flatten nested (chain) join edges into `JoinEdgeExplain` entries; a
/// nested edge's estimated cardinality is its parent table's qualifying
/// rows, matching what its `multijoin-build` op observes.
fn explain_nested_edges(
    db: &Database,
    children: &[JoinEdge],
    depth: usize,
    out: &mut Vec<JoinEdgeExplain>,
) {
    for c in children {
        let parent_rows = db.table(&c.parent).map(|t| t.len()).unwrap_or(0) as f64;
        out.push(JoinEdgeExplain {
            parent: c.parent.clone(),
            fk_col: c.fk_col.clone(),
            depth,
            build_side: c.strategy.name().to_string(),
            est_rows: (parent_rows * c.est_selectivity).round() as u64,
            observed_rows: None,
        });
        explain_nested_edges(db, &c.children, depth + 1, out);
    }
}

/// Snapshot the generation counter of every table a plan reads (depth-first,
/// each table once — a statement names a handful, so duplicates are found by
/// scanning), for the plan cache's staleness check.
fn table_generations(db: &Database, plan: &LogicalPlan) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    plan.visit(&mut |node| {
        if let LogicalPlan::Scan { table } = node {
            if !out.iter().any(|(seen, _)| seen == table) {
                out.push((table.clone(), db.generation(table).unwrap_or(0)));
            }
        }
    });
    out
}
