//! # SWOLE — the first access-aware code generation strategy
//!
//! A from-scratch Rust reproduction of *"Getting Swole: Generating
//! Access-Aware Code with Predicate Pullups"* (Crotty, Galakatos, Kraska —
//! ICDE 2020).
//!
//! Existing code-generation strategies (data-centric, hybrid, ROF) minimize
//! CPU work via predicate *pushdowns*, and all end up with the same
//! `s_trav_cr` access pattern: sequential reads of the predicate column,
//! conditional reads of everything else. SWOLE instead uses predicate
//! **pullups** — deferring filtering to make every access sequential — and
//! accepts bounded wasted work, governed by explicit cost models:
//!
//! * **value masking** (§ III-A): aggregate every tuple, multiply by the
//!   0/1 predicate result;
//! * **key masking** (§ III-B): mask the *group key* to a throwaway
//!   hash-table entry instead;
//! * **access merging** (§ III-C): fuse predicate and aggregate references
//!   to the same attribute into one read;
//! * **positional bitmaps** (§ III-D): replace FK (semi)join hash tables
//!   with bitmaps probed through the FK index;
//! * **eager aggregation** (§ III-E): aggregate before the join, delete
//!   non-qualifying groups afterwards.
//!
//! ## Quickstart
//!
//! ```
//! use swole::prelude::*;
//!
//! // A tiny table: sum(a*b) where x < 60, grouped by c.
//! let mut db = Database::new();
//! db.add_table(
//!     Table::new("R")
//!         .with_column("x", ColumnData::I8(vec![10, 70, 30, 90, 50]))
//!         .with_column("a", ColumnData::I32(vec![1, 2, 3, 4, 5]))
//!         .with_column("b", ColumnData::I32(vec![10, 10, 10, 10, 10]))
//!         .with_column("c", ColumnData::I8(vec![0, 0, 1, 1, 1])),
//! );
//! let engine = Engine::builder(db).threads(2).build();
//! let plan = QueryBuilder::scan("R")
//!     .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(60)))
//!     .aggregate(
//!         Some("c"),
//!         vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
//!     );
//! let result = engine.query(&plan).unwrap();
//! assert_eq!(result.rows, vec![vec![0, 10], vec![1, 80]]);
//! assert_eq!(result.col("s"), Some(vec![10, 80]));
//! // ...and EXPLAIN shows which pullup technique the cost model chose,
//! // with the parallelism degree and the cost-model evidence:
//! let report = engine.explain(&plan).unwrap();
//! assert_eq!(report.threads, 2);
//! println!("{report}");
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`storage`] | `swole-storage` | columns, dictionaries, dates, decimals, FK indexes |
//! | [`ht`] | `swole-ht` | aggregation hash table (throwaway entry, valid flags, deletion), its dense-array twin and key set |
//! | [`bitmap`] | `swole-bitmap` | dense + compressed positional bitmaps |
//! | [`kernels`] | `swole-kernels` | the generated-code loop bodies for every strategy |
//! | [`cost`] | `swole-cost` | the paper's cost models, calibration, the Fig. 2 chooser |
//! | [`plan`] | `swole-plan` | expressions, logical plans, the access-aware engine; `EXPLAIN CODE` prints each stage's loop as the C of Figs. 1/3/4/5 |
//!
//! Workload substrates (`swole-tpch`, `swole-micro`) and the benchmark
//! harness (`swole-bench`) regenerate every table and figure of the paper's
//! evaluation; see EXPERIMENTS.md at the repository root.

#![warn(missing_docs)]

pub use swole_bitmap as bitmap;
pub use swole_cost as cost;
pub use swole_ht as ht;
pub use swole_kernels as kernels;
pub use swole_plan as plan;
pub use swole_storage as storage;

pub use swole_cost::CostParams;
pub use swole_plan::{
    AdmissionConfig, AdmissionError, AggFunc, AggSpec, BoundStatement, CmpOp, Database, Engine,
    EngineBuilder, ExecHandle, Explain, Expr, FrameSpec, LogicalPlan, MemoryPoolStats,
    MetricsLevel, OpMetrics, ParamSlot, Params, PlanCacheStats, PlanError, PreparedStatement,
    Priority, QueryBuilder, QueryMetrics, QueryOptions, QueryResult, Rows, Session, ShutdownReport,
    SortKey, StrategyOverrides, Value, VerifyError, VerifyErrorKind, VerifyLevel, VerifyReport,
    WindowFnSpec, WindowFunc,
};

/// Everything a typical user needs.
pub mod prelude {
    pub use swole_cost::{
        AggStrategy, BitmapBuild, CostParams, GroupJoinStrategy, SemiJoinStrategy, WindowStrategy,
    };
    pub use swole_plan::{
        AdmissionConfig, AdmissionError, AggFunc, AggSpec, BoundStatement, CmpOp, ColumnStats,
        Database, Engine, EngineBuilder, ExecHandle, Explain, Expr, FrameSpec, JoinEdgeExplain,
        LogicalPlan, MemoryPoolStats, MetricsLevel, OpBounds, OverflowProof, ParamSlot, Params,
        PlanCacheStats, PlanCertificate, PlanError, PreparedStatement, Priority, QueryBuilder,
        QueryMetrics, QueryOptions, QueryResult, Session, ShutdownReport, SortKey, StatsMode,
        StrategyOverrides, TableStats, Value, VerifyError, VerifyErrorKind, VerifyLevel,
        VerifyReport, WindowFnSpec, WindowFunc,
    };
    pub use swole_storage::{ColumnData, Date, Decimal, DictColumn, Table};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_round_trip() {
        let mut db = Database::new();
        db.add_table(
            Table::new("t")
                .with_column("x", ColumnData::I32(vec![1, 2, 3, 4]))
                .with_column("v", ColumnData::I32(vec![10, 20, 30, 40])),
        );
        let engine = Engine::builder(db).build();
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col("x").cmp(CmpOp::Ge, Expr::lit(3)))
            .aggregate(None, vec![AggSpec::sum(Expr::col("v"), "total")]);
        let result = engine.query(&plan).unwrap();
        assert_eq!(result.try_scalar("total").unwrap(), 70);
        assert_eq!(result.try_scalar("total"), Ok(70));
        assert!(matches!(
            result.try_scalar("nope"),
            Err(PlanError::UnknownResultColumn(_))
        ));
    }
}
