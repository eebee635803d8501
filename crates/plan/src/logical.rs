//! Logical plans and the builder API.

use crate::expr::{AggFunc, Expr};

/// One aggregate in a query's select list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Input expression (ignored for `Count`).
    pub expr: Expr,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// `sum(expr) as name`.
    pub fn sum(expr: Expr, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Sum,
            expr,
            name: name.into(),
        }
    }

    /// `count(*) as name`.
    pub fn count(name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            expr: Expr::Lit(1),
            name: name.into(),
        }
    }

    /// `min(expr) as name`.
    pub fn min(expr: Expr, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Min,
            expr,
            name: name.into(),
        }
    }

    /// `max(expr) as name`.
    pub fn max(expr: Expr, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Max,
            expr,
            name: name.into(),
        }
    }
}

/// One sort key in an `ORDER BY` clause or window ordering.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortKey {
    /// Column the key orders by (an output column for `ORDER BY`, a base
    /// column for window orderings).
    pub column: String,
    /// Descending order when true (`DESC`); ascending otherwise.
    pub desc: bool,
}

impl SortKey {
    /// An ascending key on `column`.
    pub fn asc(column: impl Into<String>) -> SortKey {
        SortKey {
            column: column.into(),
            desc: false,
        }
    }

    /// A descending key on `column`.
    pub fn desc(column: impl Into<String>) -> SortKey {
        SortKey {
            column: column.into(),
            desc: true,
        }
    }
}

/// A window function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowFunc {
    /// 1-based position within the partition in window order.
    RowNumber,
    /// 1 + number of strictly-preceding rows in window order; peers (rows
    /// with equal order keys) share a rank.
    Rank,
    /// Running/framed sum of the input expression (wrapping arithmetic).
    Sum,
    /// Running/framed row count.
    Count,
}

/// One window function in a query's select list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowFnSpec {
    /// Window function.
    pub func: WindowFunc,
    /// Input expression (`None` for `ROW_NUMBER`, `RANK`, `COUNT(*)`).
    pub expr: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl WindowFnSpec {
    /// `ROW_NUMBER() OVER (...) as name`.
    pub fn row_number(name: impl Into<String>) -> WindowFnSpec {
        WindowFnSpec {
            func: WindowFunc::RowNumber,
            expr: None,
            name: name.into(),
        }
    }

    /// `RANK() OVER (...) as name`.
    pub fn rank(name: impl Into<String>) -> WindowFnSpec {
        WindowFnSpec {
            func: WindowFunc::Rank,
            expr: None,
            name: name.into(),
        }
    }

    /// `SUM(expr) OVER (...) as name`.
    pub fn sum(expr: Expr, name: impl Into<String>) -> WindowFnSpec {
        WindowFnSpec {
            func: WindowFunc::Sum,
            expr: Some(expr),
            name: name.into(),
        }
    }

    /// `COUNT(*) OVER (...) as name`.
    pub fn count(name: impl Into<String>) -> WindowFnSpec {
        WindowFnSpec {
            func: WindowFunc::Count,
            expr: None,
            name: name.into(),
        }
    }
}

/// The rows-frame a window function aggregates over.
///
/// Frames are ROWS-based (positional), never RANGE-based: with no window
/// `ORDER BY` the frame is the whole partition; with an `ORDER BY` it
/// defaults to `UNBOUNDED PRECEDING .. CURRENT ROW`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameSpec {
    /// Every row of the partition (no window `ORDER BY`).
    WholePartition,
    /// `ROWS UNBOUNDED PRECEDING .. CURRENT ROW` (running frame).
    UnboundedPreceding,
    /// `ROWS k PRECEDING .. CURRENT ROW` (sliding frame of `k + 1` rows).
    Preceding(usize),
}

/// A logical query plan (relational-algebra tree).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// Base-table scan.
    Scan {
        /// Table name.
        table: String,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// FK semijoin: keep input (child) rows whose parent row survives the
    /// build side.
    SemiJoin {
        /// Child-side input.
        input: Box<LogicalPlan>,
        /// Parent-side plan (scan + optional filter).
        build: Box<LogicalPlan>,
        /// Child FK column (must be registered as an FK to the build
        /// table for the positional-bitmap strategy to be available).
        fk_col: String,
    },
    /// Aggregation, optionally grouped by one column.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by column (on the input's base table), or `None` for a
        /// scalar aggregate.
        group_by: Option<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Window computation over the qualifying rows of the input: projects
    /// `select` base columns plus one output column per window function.
    Window {
        /// Input plan (scan + optional filter).
        input: Box<LogicalPlan>,
        /// `PARTITION BY` column, if any.
        partition_by: Option<String>,
        /// Window `ORDER BY` keys (empty means partition order = row order).
        order_by: Vec<SortKey>,
        /// Rows-frame the functions aggregate over.
        frame: FrameSpec,
        /// Window functions to compute (may be empty: plain projection).
        funcs: Vec<WindowFnSpec>,
        /// Base columns projected alongside the window outputs.
        select: Vec<String>,
    },
    /// Result re-ordering by output columns (deterministic: ties broken by
    /// pre-sort row position).
    OrderBy {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys naming output columns of the input.
        keys: Vec<SortKey>,
    },
    /// Result prefix truncation.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows to keep.
        n: usize,
    },
}

impl LogicalPlan {
    /// The base table a (linear) plan scans.
    pub fn base_table(&self) -> &str {
        match self {
            LogicalPlan::Scan { table } => table,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::SemiJoin { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::OrderBy { input, .. }
            | LogicalPlan::Limit { input, .. } => input.base_table(),
        }
    }

    /// Pre-order walk, the one read-only traversal: `f` sees this node,
    /// then every node under it (a semijoin's probe side before its build
    /// side).
    pub(crate) fn visit<'a>(&'a self, f: &mut impl FnMut(&'a LogicalPlan)) {
        f(self);
        match self {
            LogicalPlan::Scan { .. } => {}
            LogicalPlan::SemiJoin { input, build, .. } => {
                input.visit(f);
                build.visit(f);
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::OrderBy { input, .. }
            | LogicalPlan::Limit { input, .. } => input.visit(f),
        }
    }

    /// Rebuild the tree, the one rebuilding traversal: every expression a
    /// node holds goes through `expr` (binding parameters).
    pub(crate) fn try_map<E>(
        &self,
        expr: &mut impl FnMut(&Expr) -> Result<Expr, E>,
    ) -> Result<LogicalPlan, E> {
        Ok(match self {
            LogicalPlan::Scan { .. } => self.clone(),
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: Box::new(input.try_map(expr)?),
                predicate: expr(predicate)?,
            },
            LogicalPlan::SemiJoin {
                input,
                build,
                fk_col,
            } => LogicalPlan::SemiJoin {
                input: Box::new(input.try_map(expr)?),
                build: Box::new(build.try_map(expr)?),
                fk_col: fk_col.clone(),
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => LogicalPlan::Aggregate {
                input: Box::new(input.try_map(expr)?),
                group_by: group_by.clone(),
                aggs: aggs
                    .iter()
                    .map(|a| {
                        Ok(AggSpec {
                            func: a.func,
                            expr: expr(&a.expr)?,
                            name: a.name.clone(),
                        })
                    })
                    .collect::<Result<_, E>>()?,
            },
            LogicalPlan::Window {
                input,
                partition_by,
                order_by,
                frame,
                funcs,
                select,
            } => LogicalPlan::Window {
                input: Box::new(input.try_map(expr)?),
                partition_by: partition_by.clone(),
                order_by: order_by.clone(),
                frame: *frame,
                funcs: funcs
                    .iter()
                    .map(|w| {
                        Ok(WindowFnSpec {
                            func: w.func,
                            expr: w.expr.as_ref().map(&mut *expr).transpose()?,
                            name: w.name.clone(),
                        })
                    })
                    .collect::<Result<_, E>>()?,
                select: select.clone(),
            },
            LogicalPlan::OrderBy { input, keys } => LogicalPlan::OrderBy {
                input: Box::new(input.try_map(expr)?),
                keys: keys.clone(),
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: Box::new(input.try_map(expr)?),
                n: *n,
            },
        })
    }
}

/// Fluent builder for the supported plan shapes.
///
/// ```
/// use swole_plan::{QueryBuilder, AggSpec, Expr, CmpOp};
///
/// let plan = QueryBuilder::scan("R")
///     .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(13)))
///     .aggregate(
///         Some("c"),
///         vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
///     );
/// assert_eq!(plan.base_table(), "R");
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    plan: LogicalPlan,
}

impl QueryBuilder {
    /// Start from a table scan.
    pub fn scan(table: impl Into<String>) -> QueryBuilder {
        QueryBuilder {
            plan: LogicalPlan::Scan {
                table: table.into(),
            },
        }
    }

    /// Add a filter. A plan that already ends in one takes the new predicate
    /// into it (`predicate AND earlier`): a chain of `filter` calls is one
    /// node holding one conjunction, the form the SQL binder produces and the
    /// plan cache keys on.
    pub fn filter(mut self, predicate: Expr) -> QueryBuilder {
        self.plan = match self.plan {
            LogicalPlan::Filter {
                input,
                predicate: earlier,
            } => LogicalPlan::Filter {
                input,
                predicate: predicate.and(earlier),
            },
            plan => LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            },
        };
        self
    }

    /// Semijoin against a build-side plan through `fk_col`.
    pub fn semijoin(mut self, build: QueryBuilder, fk_col: impl Into<String>) -> QueryBuilder {
        self.plan = LogicalPlan::SemiJoin {
            input: Box::new(self.plan),
            build: Box::new(build.plan),
            fk_col: fk_col.into(),
        };
        self
    }

    /// Terminal aggregation; returns the finished plan.
    pub fn aggregate(self, group_by: Option<&str>, aggs: Vec<AggSpec>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self.plan),
            group_by: group_by.map(str::to_string),
            aggs,
        }
    }

    /// Terminal window computation; returns the finished plan.
    pub fn window(
        self,
        partition_by: Option<&str>,
        order_by: Vec<SortKey>,
        frame: FrameSpec,
        funcs: Vec<WindowFnSpec>,
        select: Vec<String>,
    ) -> LogicalPlan {
        LogicalPlan::Window {
            input: Box::new(self.plan),
            partition_by: partition_by.map(str::to_string),
            order_by,
            frame,
            funcs,
            select,
        }
    }

    /// The plan built so far, without a terminal aggregation.
    pub fn build(self) -> LogicalPlan {
        self.plan
    }
}

/// Wrap a finished plan in a result-level `ORDER BY`.
pub fn order_by(plan: LogicalPlan, keys: Vec<SortKey>) -> LogicalPlan {
    LogicalPlan::OrderBy {
        input: Box::new(plan),
        keys,
    }
}

/// Wrap a finished plan in a `LIMIT`.
pub fn limit(plan: LogicalPlan, n: usize) -> LogicalPlan {
    LogicalPlan::Limit {
        input: Box::new(plan),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    #[test]
    fn builder_produces_expected_tree() {
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(13)))
            .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
        match &plan {
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                assert!(group_by.is_none());
                assert!(matches!(**input, LogicalPlan::Filter { .. }));
            }
            other => panic!("unexpected plan {other:?}"),
        }
        assert_eq!(plan.base_table(), "R");
    }

    /// The normal form is built, not computed later: chained `filter`
    /// calls are the one-conjunction spelling, on a build side as well.
    #[test]
    fn filter_chains_merge_as_they_are_built() {
        let (a, b) = (
            Expr::col("x").cmp(CmpOp::Lt, Expr::lit(13)),
            Expr::col("y").cmp(CmpOp::Ge, Expr::lit(5)),
        );
        let chained = QueryBuilder::scan("S").filter(a.clone()).filter(b.clone());
        let merged = QueryBuilder::scan("S").filter(b.and(a));
        assert_eq!(chained.clone().build(), merged.clone().build());
        assert_eq!(
            QueryBuilder::scan("R").semijoin(chained, "fk").build(),
            QueryBuilder::scan("R").semijoin(merged, "fk").build()
        );
    }

    #[test]
    fn semijoin_shape() {
        let plan = QueryBuilder::scan("R")
            .semijoin(
                QueryBuilder::scan("S").filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(13))),
                "fk",
            )
            .aggregate(None, vec![AggSpec::count("n")]);
        assert_eq!(plan.base_table(), "R");
    }
}
