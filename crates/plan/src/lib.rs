//! # swole-plan — the access-aware query engine
//!
//! The declarative layer on top of the kernel substrate: build a logical
//! plan with [`QueryBuilder`], hand it to an [`Engine`], and the planner
//! will
//!
//! 1. estimate predicate selectivities and group-key cardinalities by
//!    sampling ([`stats`]),
//! 2. estimate the aggregation's `comp` term by expression introspection,
//! 3. consult the `swole-cost` choosers (the paper's Fig. 2 matrix) to pick
//!    hybrid / value masking / key masking / positional bitmap / eager
//!    aggregation per pipeline, and
//! 4. execute tile-at-a-time through the `swole-kernels` loop bodies.
//!
//! [`Engine::explain`] shows the chosen techniques with the cost-model
//! evidence, [`Engine::explain_code`] the loop each stage runs as the
//! paper's C-like code; [`interp`] provides a deliberately naive
//! block-at-a-time interpreter used by the test suite to cross-check every
//! result.
//!
//! The plan shapes supported are exactly the ones the paper optimizes:
//! scan → filter → (scalar | group-by) aggregation, FK semijoin +
//! aggregation, and FK groupjoin. Unsupported shapes return
//! [`PlanError::Unsupported`] rather than silently falling back.
//!
//! Execution is hardened: morsel workers run under panic isolation, a
//! session can set [`EngineBuilder::deadline`] and
//! [`EngineBuilder::memory_budget`], in-flight queries can be cancelled
//! through an [`ExecHandle`], and a pullup strategy that fails a runtime
//! precondition (panic, budget) is retried once under
//! the data-centric interpreter — recorded in [`Explain`]. Tests inject
//! such failures with a [`faults::FaultPlan`] armed on one engine by
//! [`Engine::inject_faults`]; no other engine of the process sees it.

#![warn(missing_docs)]

mod builder;
mod cache;
mod catalog;
mod code;
mod engine;
mod error;
mod exec;
mod explain;
pub mod expr;
pub mod interp;
mod lifecycle;
mod logical;
pub mod metrics;
pub mod physical;
mod planner;
mod prepared;
mod result;
mod session;
pub mod sql;
pub mod stats;
mod tile;
mod value;
mod verify;

pub use builder::{EngineBuilder, StrategyOverrides};
pub use cache::{FallbackBreakerStats, PlanCacheStats};
pub use catalog::Database;
pub use engine::Engine;
pub use error::PlanError;
pub use explain::{Explain, JoinEdgeExplain};
pub use expr::{AggFunc, CmpOp, Expr};
pub use lifecycle::ShutdownReport;
pub use logical::{
    limit, order_by, AggSpec, FrameSpec, LogicalPlan, QueryBuilder, SortKey, WindowFnSpec,
    WindowFunc,
};
pub use metrics::{MetricsLevel, OpMetrics, QueryMetrics};
pub use prepared::{BoundStatement, PreparedStatement};
pub use result::QueryResult;
pub use session::{QueryOptions, Session};
pub use sql::{parse as parse_sql, ExplainMode, ParamSlot, SqlError};
pub use stats::{ColumnStats, StatsMode, TableStats};
pub use swole_runtime::faults;
pub use swole_runtime::{
    AdmissionConfig, AdmissionError, ExecHandle, MemGauge, MemoryPoolStats, Priority,
};
pub use swole_verify::{
    OpBounds, OverflowProof, PlanCertificate, VerifyError, VerifyErrorKind, VerifyLevel,
    VerifyReport,
};
pub use value::{Params, Value};
