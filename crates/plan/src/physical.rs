//! Physical plans: the shapes the executor runs plus the decisions the
//! planner made, with their cost-model evidence.

use std::sync::Arc;

use crate::expr::Expr;
use crate::logical::{AggSpec, FrameSpec, SortKey, WindowFnSpec};
use crate::tile::{group_sink, scalar_sinks, TileProgram};
use swole_cost::{
    AggProfile, AggStrategy, GroupJoinProfile, GroupJoinStrategy, JoinGraphProfile,
    JoinOrderMethod, SemiJoinStrategy, WindowStrategy,
};

/// A result-level post-operator applied after the core pipeline: `ORDER BY`
/// and `LIMIT` run over the materialized result rows, never over base tables.
#[derive(Debug, Clone)]
pub(crate) enum PostOp {
    /// Re-sort the result rows by output columns (stable: ties keep the
    /// pre-sort order, which is itself deterministic).
    Sort { keys: Vec<SortKey> },
    /// Keep the first `n` result rows.
    Limit { n: usize },
}

/// A planned, executable query with its decision trail.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub(crate) shape: Shape,
    /// Result-level post-operators (`ORDER BY`, `LIMIT`) in application order.
    pub(crate) post: Vec<PostOp>,
    /// One line per decision the planner took, with the cost-model
    /// justification — what `EXPLAIN` prints.
    pub decisions: Vec<String>,
    /// Named cost-model terms behind the strategy decision (cycles), e.g.
    /// `("agg.value-masking", 1.2e6)` — the numeric evidence `EXPLAIN`
    /// renders.
    pub cost_terms: Vec<(String, f64)>,
    /// Statistics-backed answer: when the planner can prove the result from
    /// catalog statistics alone (`COUNT(*)`/`MIN`/`MAX`, no filter, fresh
    /// stats), the one result row is carried here and execution skips the
    /// scan entirely. The shape is kept so verification and EXPLAIN still
    /// describe the scan the shortcut replaced.
    pub(crate) shortcut: Option<Vec<i64>>,
    /// What the planner priced the plan with. Metrics, the cache's drift
    /// check and the observed-cost re-scoring read these instead of
    /// sampling the tables again.
    pub(crate) estimates: Estimates,
}

/// The estimates one planner arm priced its plan with.
#[derive(Debug, Clone)]
pub(crate) struct Estimates {
    /// σ of the filter feeding the plan's first operator (the scan's own
    /// filter; for a join, the first edge's surviving fraction). `None`
    /// when that operator has no filter. After a drift re-plan this is the
    /// observed σ the plan was priced with, not the sample's.
    pub selectivity: Option<f64>,
    /// Result rows of the core pipeline, for pricing post-operators.
    pub result_rows: usize,
    /// Inputs of the strategy decision the cost model made.
    pub profile: CostProfile,
}

/// The cost-model profile behind a plan's modelled strategy decision.
#[derive(Debug, Clone)]
pub(crate) enum CostProfile {
    /// No modelled decision: window scans, and scan aggregations whose
    /// min/max force hybrid without consulting the chooser.
    Unmodelled,
    /// Scan aggregation, scalar or grouped.
    Agg(AggProfile),
    /// Grouped FK join: the groupjoin / eager-aggregation decision.
    GroupJoin(GroupJoinProfile),
    /// Scalar FK join: the probe order.
    Join(JoinGraphProfile),
}

impl PhysicalPlan {
    /// Render the plan as EXPLAIN text.
    pub fn explain(&self) -> String {
        let mut out = self.describe();
        for d in &self.decisions {
            out.push_str("\n  -> ");
            out.push_str(d);
        }
        out
    }

    /// The one-line plan rendering: post-operators outermost-first, then
    /// the core shape.
    pub(crate) fn describe(&self) -> String {
        let mut out = String::new();
        for p in self.post.iter().rev() {
            match p {
                PostOp::Sort { keys } => {
                    out.push_str("OrderBy[");
                    for (i, k) in keys.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&k.column);
                        out.push_str(if k.desc { " desc" } else { " asc" });
                    }
                    out.push_str("] <- ");
                }
                PostOp::Limit { n } => {
                    out.push_str(&format!("Limit[{n}] <- "));
                }
            }
        }
        out.push_str(&self.shape.describe());
        out
    }

    /// The window strategy chosen, if this plan has a window pipeline.
    pub fn window_strategy(&self) -> Option<WindowStrategy> {
        match &self.shape {
            Shape::WindowScan { strategy, .. } => Some(*strategy),
            _ => None,
        }
    }

    /// The aggregation strategy chosen, if this plan has an aggregation
    /// pipeline (used by tests and the advisor example).
    pub fn agg_strategy(&self) -> Option<AggStrategy> {
        match &self.shape {
            Shape::ScanAgg { strategy, .. } => Some(*strategy),
            _ => None,
        }
    }

    /// The semijoin strategy chosen, if this plan is a single-edge
    /// (two-table) FK join.
    pub fn semijoin_strategy(&self) -> Option<SemiJoinStrategy> {
        match &self.shape {
            Shape::MultiJoinAgg { edges, .. } if count_edges(edges) == 1 => Some(edges[0].strategy),
            _ => None,
        }
    }

    /// The groupjoin strategy chosen, if this plan is a grouped FK join.
    pub fn groupjoin_strategy(&self) -> Option<GroupJoinStrategy> {
        match &self.shape {
            Shape::MultiJoinAgg { group, .. } => group.as_ref().map(|(_, s)| *s),
            _ => None,
        }
    }

    /// How the join's probe order was determined, if this plan is an FK
    /// join.
    pub fn join_order_method(&self) -> Option<JoinOrderMethod> {
        match &self.shape {
            Shape::MultiJoinAgg { order_method, .. } => Some(*order_method),
            _ => None,
        }
    }

    /// Probe order of an FK join: build-side table names in the order
    /// their membership tests run.
    pub fn join_probe_order(&self) -> Option<Vec<String>> {
        match &self.shape {
            Shape::MultiJoinAgg { edges, .. } => {
                Some(edges.iter().map(|e| e.parent.clone()).collect())
            }
            _ => None,
        }
    }
}

/// One edge of an FK join: the fact (or an intermediate parent)
/// semijoins `parent` through `fk_col`. Nested `children` edges restrict
/// the parent itself (a chain: fact → parent → grandparent); they fold into
/// the parent's qualifying mask before the fact-side membership structure
/// is built.
#[derive(Debug, Clone)]
pub(crate) struct JoinEdge {
    /// Build-side (parent) table.
    pub parent: String,
    /// Filter over the parent's own columns, if any.
    pub parent_filter: Option<Expr>,
    /// `parent_filter` lowered over `parent`.
    pub parent_program: Arc<TileProgram>,
    /// FK column on the child pointing into `parent`.
    pub fk_col: String,
    /// Membership structure the build side materializes.
    pub strategy: SemiJoinStrategy,
    /// Edges restricting `parent` itself (chain joins), in canonical order.
    pub children: Vec<JoinEdge>,
    /// Estimated fraction of probe rows surviving this edge.
    pub est_selectivity: f64,
}

/// The representation of a grouped stage's per-worker group table, decided
/// at plan time from catalog facts only (no option selects it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupTableRepr {
    /// The open-addressing `AggTable`: sparse, unknown or stale key domains
    /// (and every ungrouped shape, which has no table).
    Hash,
    /// A `DenseAggTable` over the exactly known key domain `[min, max]`.
    /// The domain is a fact about particular contents: `generations` are
    /// those of the scanned table and of the table the domain was read from
    /// (the same table for a group-by; the edge's parent for a grouped
    /// join, whose FK index ties the key to both).
    Dense {
        min: i64,
        max: i64,
        generations: (u64, u64),
    },
}

impl GroupTableRepr {
    /// The representation that runs, and that the bounds pass certifies,
    /// against tables now at `generations`: a dense domain holds only for
    /// the contents it was planned against, anything else takes the hash
    /// table (which needs no domain) rather than index out of range.
    pub(crate) fn at(self, generations: (u64, u64)) -> GroupTableRepr {
        match self {
            GroupTableRepr::Dense { generations: g, .. } if g != generations => {
                GroupTableRepr::Hash
            }
            repr => repr,
        }
    }
}

/// The executable shapes (the plan patterns §§ III-A–III-E optimize).
#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)] // every shape ends in an aggregation
pub(crate) enum Shape {
    /// scan → filter? → (scalar | group-by) aggregation.
    ScanAgg {
        table: String,
        filter: Option<Expr>,
        group_by: Option<String>,
        aggs: Vec<AggSpec>,
        strategy: AggStrategy,
        /// The group table of a grouped aggregation.
        group_table: GroupTableRepr,
        /// `filter`, the aggregate inputs and `group_by` lowered over
        /// `table` (every shape carries its stages' programs, lowered once
        /// at plan time and cached with the plan).
        program: Arc<TileProgram>,
    },
    /// FK join over one or more edges (a two-table semijoin is the one-edge
    /// case): scan the fact table, restrict each tile through the edges'
    /// membership structures in the planned probe order, then aggregate the
    /// survivors — into one row, or (the groupjoin, § III-E) by the FK of
    /// the join's single edge. Edges may nest (chains).
    MultiJoinAgg {
        fact: String,
        fact_filter: Option<Expr>,
        /// Direct fact edges in chosen probe order.
        edges: Vec<JoinEdge>,
        aggs: Vec<AggSpec>,
        order_method: JoinOrderMethod,
        /// `true`: fully masked probe (the bitmap bit is ANDed into the
        /// filter mask and every lane aggregated); `false`: each edge
        /// narrows the tile's selection vector.
        probe_masked: bool,
        /// Group by this column — the FK of the one edge — under this
        /// strategy; `None` for a scalar aggregation.
        group: Option<(String, GroupJoinStrategy)>,
        /// The group table of a grouped join.
        group_table: GroupTableRepr,
        fact_program: Arc<TileProgram>,
    },
    /// scan → filter? → sort by (partition, order, row) → window functions.
    /// With no functions this degenerates to a row projection.
    WindowScan {
        table: String,
        filter: Option<Expr>,
        partition_by: Option<String>,
        order_by: Vec<SortKey>,
        frame: FrameSpec,
        funcs: Vec<WindowFnSpec>,
        select: Vec<String>,
        strategy: WindowStrategy,
        /// `filter` lowered over `table`.
        scan_program: Arc<TileProgram>,
        /// The columns phase 2 materializes for qualifying rows, in order:
        /// partition key (if any), order keys, projected columns, then the
        /// inputs of the functions that have one.
        gather_program: Arc<TileProgram>,
    },
}

impl Shape {
    /// Short name of the access strategy driving this shape's loop body.
    pub(crate) fn strategy_name(&self) -> String {
        match self {
            Shape::ScanAgg {
                strategy,
                group_by: None,
                ..
            } => strategy.name().to_string(),
            Shape::ScanAgg {
                strategy,
                aggs,
                program,
                ..
            } => format!(
                "{}, sink: {}",
                strategy.name(),
                group_sink(program, aggs).name(match strategy {
                    AggStrategy::Hybrid => "groupby_gather",
                    AggStrategy::ValueMasking => "groupby_value_masked",
                    AggStrategy::KeyMasking => "groupby_key_masked",
                })
            ),
            Shape::MultiJoinAgg {
                edges,
                aggs,
                order_method,
                probe_masked,
                group,
                fact_program,
                ..
            } => format!(
                "multi-join ({} edges, order: {}{}{})",
                count_edges(edges),
                order_method.name(),
                // The planned sink: at run time an unproven accumulator, or
                // counters, step it down to AND-into-mask + `sum_op_masked`.
                if !*probe_masked {
                    ""
                } else if scalar_sinks(fact_program, aggs, true, false)
                    .fused_probe()
                    .is_some()
                {
                    ", masked probe, sink: semijoin_sum_bitmap_masked"
                } else {
                    ", masked probe"
                },
                group
                    .as_ref()
                    .map(|(_, s)| format!(
                        ", {}, sink: {}",
                        s.name(),
                        group_sink(fact_program, aggs).name(match s {
                            GroupJoinStrategy::GroupJoin => "groupby_gather",
                            GroupJoinStrategy::EagerAggregation => "eager_aggregate",
                        })
                    ))
                    .unwrap_or_default(),
            ),
            Shape::WindowScan {
                strategy, funcs, ..
            } => {
                if funcs.is_empty() {
                    "projection".to_string()
                } else {
                    strategy.name().to_string()
                }
            }
        }
    }

    pub(crate) fn describe(&self) -> String {
        match self {
            Shape::ScanAgg {
                table,
                filter,
                group_by,
                aggs,
                strategy,
                ..
            } => format!(
                "Aggregate[{}] ({} aggs{}) <- {}Scan {table}",
                strategy.name(),
                aggs.len(),
                group_by
                    .as_ref()
                    .map(|g| format!(", group by {g}"))
                    .unwrap_or_default(),
                if filter.is_some() { "Filter <- " } else { "" },
            ),
            Shape::MultiJoinAgg {
                fact,
                fact_filter,
                edges,
                order_method,
                probe_masked,
                group,
                ..
            } => format!(
                "Aggregate{} <- MultiJoin[order: {}] {}{fact} -> [{}]{}",
                group
                    .as_ref()
                    .map(|(g, s)| format!("[{}] (group by {g})", s.name()))
                    .unwrap_or_default(),
                order_method.name(),
                if fact_filter.is_some() {
                    "Filter <- "
                } else {
                    ""
                },
                edges.iter().map(render_edge).collect::<Vec<_>>().join(", "),
                if *probe_masked {
                    " (probe: masked)"
                } else {
                    ""
                },
            ),
            Shape::WindowScan {
                table,
                filter,
                partition_by,
                funcs,
                strategy,
                ..
            } => {
                if funcs.is_empty() {
                    format!(
                        "Project <- {}Scan {table}",
                        if filter.is_some() { "Filter <- " } else { "" },
                    )
                } else {
                    format!(
                        "Window[{}] ({} fns{}) <- {}Scan {table}",
                        strategy.name(),
                        funcs.len(),
                        partition_by
                            .as_ref()
                            .map(|p| format!(", partition by {p}"))
                            .unwrap_or_default(),
                        if filter.is_some() { "Filter <- " } else { "" },
                    )
                }
            }
        }
    }
}

/// Total edges in a join forest, nested chains included.
pub(crate) fn count_edges(edges: &[JoinEdge]) -> usize {
    edges.iter().map(|e| 1 + count_edges(&e.children)).sum()
}

/// One edge as `fk -> parent[strategy]( <children> )`.
fn render_edge(e: &JoinEdge) -> String {
    let mut out = format!("{} -> {}[{}]", e.fk_col, e.parent, e.strategy.name());
    if !e.children.is_empty() {
        out.push_str(&format!(
            "({})",
            e.children
                .iter()
                .map(render_edge)
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out
}
