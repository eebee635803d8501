//! Configuring an engine: [`EngineBuilder`] and the strategy pins of
//! [`StrategyOverrides`].

use std::time::Duration;

use crate::cache::DEFAULT_PLAN_CACHE_BYTES;
use crate::catalog::Database;
use crate::engine::Engine;
use crate::metrics::MetricsLevel;
use crate::session::QueryOptions;
use crate::stats;
use swole_cost::{AggStrategy, CostParams, GroupJoinStrategy, SemiJoinStrategy, WindowStrategy};
use swole_kernels::{MORSEL_ROWS, TILE};
use swole_runtime::AdmissionConfig;
use swole_verify::VerifyLevel;

/// Strategy pins that override the cost model, for equivalence tests and
/// experiments. `None` / empty fields (the default) leave the paper's
/// Fig. 2 choosers — and the join-order enumerator — in charge; a set
/// field pins that decision for every query of the session. Set through
/// [`EngineBuilder::strategies`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct StrategyOverrides {
    /// Pin the scan-aggregation strategy. Pinning a masked strategy while
    /// the aggregate list contains min/max fails at plan time (those
    /// require hybrid).
    pub agg: Option<AggStrategy>,
    /// Pin the semijoin build/probe strategy. In a multi-way join this pins
    /// every direct edge's membership structure (a chain edge always builds
    /// the packed bitmap its child's build ANDs in); per-edge pins
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
    /// Per-edge build-side pins for multi-way joins: for the direct edge
    /// whose build side is the named table, use the given membership structure
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
}

/// Builder for [`Engine`] sessions: database, cost parameters, parallelism
/// (the worker pool's size), memory budgets, admission control, and
/// per-query option defaults.
///
/// ```
/// # use swole_plan::{Database, Engine};
/// let engine = Engine::builder(Database::new()).threads(4).build();
/// assert_eq!(engine.threads(), 4);
/// ```
pub struct EngineBuilder {
    pub(crate) db: Database,
    pub(crate) params: CostParams,
    pub(crate) threads: usize,
    pub(crate) morsel_rows: usize,
    /// Engine-wide option defaults; what is left unset takes the hard
    /// defaults at resolution.
    pub(crate) defaults: QueryOptions,
    pub(crate) plan_cache_bytes: usize,
    pub(crate) strategies: StrategyOverrides,
    pub(crate) global_budget: Option<usize>,
    pub(crate) admission: Option<AdmissionConfig>,
    pub(crate) stats_mode: stats::StatsMode,
}

impl EngineBuilder {
    pub(crate) fn new(db: Database) -> EngineBuilder {
        EngineBuilder {
            db,
            params: CostParams::default(),
            threads: 1,
            morsel_rows: MORSEL_ROWS,
            defaults: QueryOptions::default(),
            plan_cache_bytes: DEFAULT_PLAN_CACHE_BYTES,
            strategies: StrategyOverrides::default(),
            global_budget: None,
            admission: None,
            stats_mode: stats::StatsMode::default(),
        }
    }

    /// Use specific (e.g. calibrated) cost parameters.
    pub fn params(mut self, params: CostParams) -> EngineBuilder {
        self.params = params;
        self
    }

    /// Number of threads for execution and planning (default 1 =
    /// sequential, every stage inline on the querying thread). `0` means
    /// "use all available hardware parallelism". Above one, the engine
    /// keeps a pool of this many persistent `swole-pool-*` workers for its
    /// whole life, and every query of the session runs its stages on it,
    /// the querying thread working beside the workers. Concurrent queries
    /// multiplex over the pool morsel-by-morsel (higher
    /// [`crate::Priority`] classes are drained first), so N clients share
    /// the machine instead of oversubscribing it N-fold. Results are
    /// bit-identical at every thread count: morsel boundaries are the same
    /// and every merge is commutative and associative. A stage of at most
    /// one morsel runs inline on the pool too.
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

    /// The same as [`EngineBuilder::threads`]`(workers)`: every
    /// multi-thread engine runs on its worker pool. Kept for callers that
    /// still name the pool.
    pub fn worker_pool(self, workers: usize) -> EngineBuilder {
        self.threads(workers)
    }

    /// Rows per parallel work unit (morsel), rounded up to whole
    /// [`TILE`]-row tiles. Default is [`MORSEL_ROWS`].
    pub fn tile_rows(mut self, rows: usize) -> EngineBuilder {
        self.morsel_rows = rows.div_ceil(TILE).max(1) * TILE;
        self
    }

    /// Per-query wall-clock deadline. Workers observe it cooperatively at
    /// morsel boundaries; an expired deadline returns
    /// [`crate::PlanError::DeadlineExceeded`] with partial-progress counts. A 0ms
    /// deadline deterministically fails every query before its first
    /// morsel, at any thread count. Overridable per call through
    /// [`QueryOptions::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> EngineBuilder {
        self.defaults.deadline = Some(deadline);
        self
    }

    /// Per-query memory budget in bytes: a plan whose certified peak
    /// exceeds it is rejected with [`crate::AdmissionError::BudgetInfeasible`]
    /// before it takes an admission slot. (What runs is held to its peak
    /// by its [`crate::MemGauge`] with or without a budget.) Overridable
    /// per call through [`QueryOptions::memory_budget`].
    pub fn memory_budget(mut self, bytes: usize) -> EngineBuilder {
        self.defaults.memory_budget = Some(bytes);
        self
    }

    /// Engine-wide memory budget in bytes shared by every concurrent
    /// query. After its admission slot, each query reserves its certified
    /// peak from it, waiting in arrival order until it fits (failing with
    /// [`crate::AdmissionError::DeadlineBeforeStart`] when its deadline
    /// passes first, [`crate::AdmissionError::Shutdown`] on shutdown), so a
    /// neighbour can never fail a query mid-run. A peak over the whole
    /// budget is [`crate::AdmissionError::BudgetInfeasible`].
    pub fn global_memory_budget(mut self, bytes: usize) -> EngineBuilder {
        self.global_budget = Some(bytes);
        self
    }

    /// Bound how many queries may execute (and wait) simultaneously.
    /// Arrivals beyond `max_concurrent` running plus `queue_depth` waiting
    /// are rejected with [`crate::PlanError::Admission`] instead of queueing
    /// unboundedly; waiters are admitted by [`crate::Priority`] class, and a
    /// waiter whose deadline expires in the queue is rejected without ever
    /// executing.
    pub fn admission(mut self, cfg: AdmissionConfig) -> EngineBuilder {
        self.admission = Some(cfg);
        self
    }

    /// Arm the per-query watchdog: a query that completes no morsel for
    /// `window` straight is cancelled with [`crate::PlanError::Stalled`] (with
    /// partial-progress counts) instead of wedging an execution slot until
    /// its deadline — or forever, when it has none. The watchdog is
    /// cooperative, observed at morsel boundaries by every worker of the
    /// query, so it catches schedule starvation and pathologically slow
    /// progress, not a single wedged morsel body. Off by default;
    /// overridable per call through [`QueryOptions::stall_window`].
    pub fn stall_window(mut self, window: Duration) -> EngineBuilder {
        self.defaults.stall_window = Some(window);
        self
    }

    /// How much every query measures while executing (default
    /// [`MetricsLevel::Off`]). [`MetricsLevel::Counters`] collects
    /// per-operator access counters ([`crate::QueryResult::metrics`]);
    /// [`MetricsLevel::Timings`] adds per-operator and per-query wall
    /// clock. [`Engine::explain_analyze`] raises the level to at least
    /// `Timings` for its one execution regardless of this setting.
    /// Overridable per call through [`QueryOptions::metrics`].
    pub fn metrics(mut self, level: MetricsLevel) -> EngineBuilder {
        self.defaults.metrics = Some(level);
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

    /// Byte budget for the session's plan cache (default 64 KiB). Each
    /// cached plan counts its estimated size against it, and the least
    /// recently used entries are evicted to make room. `0` disables plan
    /// caching entirely — every query plans from scratch.
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
    /// audit. An ill-formed plan fails with [`crate::PlanError::Verification`]
    /// before any execution starts. Overridable per call through
    /// [`QueryOptions::verify`].
    pub fn verify(mut self, level: VerifyLevel) -> EngineBuilder {
        self.defaults.verify = Some(level);
        self
    }

    /// Finish the builder.
    pub fn build(self) -> Engine {
        Engine::new(self)
    }
}

/// What an [`Engine`] was built with.
impl Engine {
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
}
