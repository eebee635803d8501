//! Physical plans: the shapes the executor runs plus the decisions the
//! planner made, with their cost-model evidence.

use std::fmt;
use std::sync::Arc;

use crate::expr::Expr;
use crate::logical::{AggSpec, FrameSpec, SortKey, WindowFnSpec};
use crate::tile::{group_sink, scalar_sinks, GroupSink, Sink, TileProgram};
use swole_cost::{
    AggProfile, AggStrategy, GroupJoinProfile, GroupJoinStrategy, GroupTableCost, JoinGraphProfile,
    JoinOrderMethod, SemiJoinStrategy, WindowStrategy,
};
use swole_ht::DenseAggTable;
use swole_verify::ir::{Access, AccessSig};
use swole_verify::OverflowProof;

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
    /// Short name of the access strategy driving the shape's loop body,
    /// rendered once at plan time: `EXPLAIN` reads it.
    pub(crate) strategy: String,
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
    /// A planned core pipeline, before any post-operator is attached.
    pub(crate) fn new(
        shape: Shape,
        decisions: Vec<String>,
        cost_terms: Vec<(String, f64)>,
        shortcut: Option<Vec<i64>>,
        estimates: Estimates,
    ) -> PhysicalPlan {
        PhysicalPlan {
            strategy: shape.strategy_name(),
            shape,
            post: Vec::new(),
            decisions,
            cost_terms,
            shortcut,
            estimates,
        }
    }

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
            Shape::WindowScan(w) => Some(w.strategy),
            Shape::Agg(_) => None,
        }
    }

    /// The aggregation strategy chosen, if this plan aggregates a plain
    /// scan (used by tests and the advisor example).
    pub fn agg_strategy(&self) -> Option<AggStrategy> {
        match &self.shape {
            Shape::Agg(AggShape {
                mode: AggMode::By(strategy),
                ..
            }) => Some(*strategy),
            _ => None,
        }
    }

    /// The semijoin strategy chosen, if this plan is a single-edge
    /// (two-table) FK join.
    pub fn semijoin_strategy(&self) -> Option<SemiJoinStrategy> {
        match self.join()?.edges[..] {
            [ref e] if e.children.is_empty() => Some(e.strategy),
            _ => None,
        }
    }

    /// The groupjoin strategy chosen, if this plan is a grouped FK join.
    pub fn groupjoin_strategy(&self) -> Option<GroupJoinStrategy> {
        match self.join()?.mode {
            AggMode::Join(strategy) => Some(strategy),
            _ => None,
        }
    }

    /// How the join's probe order was determined, if this plan is an FK
    /// join.
    pub fn join_order_method(&self) -> Option<JoinOrderMethod> {
        Some(self.join()?.order_method)
    }

    /// Probe order of an FK join: build-side table names in the order
    /// their membership tests run.
    pub fn join_probe_order(&self) -> Option<Vec<String>> {
        let edges = &self.join()?.edges;
        Some(edges.iter().map(|e| e.parent.clone()).collect())
    }

    /// The aggregation, if it restricts its scan through join edges.
    pub(crate) fn join(&self) -> Option<&AggShape> {
        match &self.shape {
            Shape::Agg(a) if !a.edges.is_empty() => Some(a),
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
    /// Membership structure the build side materializes: the planned one
    /// for a direct edge; for a chain edge, whose bit its child's build ANDs
    /// into the child's tile masks, a packed bitmap.
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

    /// The table as the aggregation chooser prices it, holding `n_aggs`
    /// values per key: a dense array by the bytes the executor allocates
    /// per worker.
    pub(crate) fn cost(self, n_aggs: usize) -> GroupTableCost {
        match self {
            GroupTableRepr::Dense { min, max, .. } => {
                DenseAggTable::slots_for(min, max).map_or(GroupTableCost::Hash, |slots| {
                    GroupTableCost::Dense {
                        bytes: DenseAggTable::bytes_for(slots, n_aggs),
                    }
                })
            }
            GroupTableRepr::Hash => GroupTableCost::Hash,
        }
    }
}

/// How an aggregation's rows are folded: which strategies exist depends on
/// whether they come through join edges and on the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggMode {
    /// No edges: the scan aggregation's strategy (§ III-A, III-B), scalar
    /// or grouped.
    By(AggStrategy),
    /// Scalar over one or more edges. `masked`: the fully masked probe
    /// (each bitmap bit is ANDed into the filter mask and every lane
    /// aggregated, § III-D); otherwise each edge narrows the tile's
    /// selection vector.
    Probe { masked: bool },
    /// Grouped by the FK of the join's one edge: the groupjoin or its
    /// eager-aggregation rewrite (§ III-E).
    Join(GroupJoinStrategy),
}

/// Which lanes of a tile reach an aggregating stage's sink — the half of
/// the loop every technique shares, and what the morsel driver is compiled
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lanes {
    /// Compact the filter mask into a selection vector, then narrow it
    /// through each edge.
    Selected,
    /// Every lane under the filter mask (and a masked probe's membership).
    Masked,
    /// Every lane, by its masked key: a lane the filter drops upserts into
    /// the throwaway entry (grouped key masking).
    KeyMasked,
    /// Every lane, unrestricted: the sink settles with the edge once, after
    /// the merge (eager aggregation).
    Every,
}

/// Which lanes belong to the result besides those the lanes keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Membership {
    /// All of them.
    None,
    /// Those whose bit is set in a masked probe's one bitmap edge, at the
    /// lane's FK position (§ III-D).
    Bitmap,
}

/// The width a scalar stage's sums fold in under the certificate's
/// `proof`: `i32` lanes serve only the masked sums of a stage without a
/// membership; every other instance widens them to `i64`.
pub(crate) fn fold_mode(proof: OverflowProof, masked: bool, member: bool) -> OverflowProof {
    match proof {
        OverflowProof::I32Tile if !masked || member => OverflowProof::I64,
        proof => proof,
    }
}

/// The terminal loop of an aggregating stage: one fold per aggregate, or
/// the grouped stage's upsert. Shared with every run of the cached plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Sinks {
    Scalar(Arc<[Sink]>),
    Grouped(Arc<GroupSink>),
}

/// What an aggregating stage runs, built once at plan time from the priced
/// [`AggMode`]: the executor dispatches on it, `EXPLAIN` prints it and
/// verification checks its [`Instance::access`] against the priced
/// strategy. The width its sums take and whether a run counts are the run's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Instance {
    pub lanes: Lanes,
    pub member: Membership,
    pub sink: Sinks,
}

impl Instance {
    /// The instance that runs `mode` over `program`'s aggregate list.
    pub(crate) fn lower(
        mode: AggMode,
        grouped: bool,
        program: &TileProgram,
        aggs: &[AggSpec],
    ) -> Instance {
        let lanes = match mode {
            AggMode::By(AggStrategy::Hybrid)
            | AggMode::Probe { masked: false }
            | AggMode::Join(GroupJoinStrategy::GroupJoin) => Lanes::Selected,
            // A scalar aggregation has no key to mask; hybrid covers key
            // masking too.
            AggMode::By(AggStrategy::KeyMasking) if !grouped => Lanes::Selected,
            AggMode::By(AggStrategy::KeyMasking) => Lanes::KeyMasked,
            AggMode::By(AggStrategy::ValueMasking) | AggMode::Probe { masked: true } => {
                Lanes::Masked
            }
            AggMode::Join(GroupJoinStrategy::EagerAggregation) => Lanes::Every,
        };
        let member = match mode {
            AggMode::Probe { masked: true } => Membership::Bitmap,
            _ => Membership::None,
        };
        let sink = match grouped {
            true => Sinks::Grouped(Arc::new(group_sink(program, aggs))),
            false => Sinks::Scalar(scalar_sinks(program, aggs).into()),
        };
        Instance {
            lanes,
            member,
            sink,
        }
    }

    /// How the loop reads each attribute stream of a stage that is
    /// `joined` through FK edges or scans alone: the run side of
    /// verification's access-signature pass.
    pub(crate) fn access(&self, joined: bool) -> AccessSig {
        use Access::{Conditional, Gather, Sequential};
        // Selected lanes read the inputs through the selection vector; the
        // other lane sets read every lane in order, the mask, the masked key
        // or the edge riding along.
        let input = match self.lanes {
            Lanes::Selected => Conditional,
            Lanes::Masked | Lanes::KeyMasked | Lanes::Every => Sequential,
        };
        let grouped = matches!(self.sink, Sinks::Grouped(_));
        AccessSig {
            // A grouped join's loop is keyed by the FK it gathers through.
            predicate: (!(joined && grouped)).then_some(Sequential),
            agg_input: Some(input),
            group_key: (grouped && !joined).then_some(input),
            // A gather per lane into each edge's membership structure (or,
            // grouped, the group entry).
            structure: joined.then_some(Gather),
        }
    }
}

impl fmt::Display for Instance {
    /// The instance as `EXPLAIN`'s strategy line names it: a membership,
    /// then `, sink: ` and the kernel with its slots — nothing for a scalar
    /// fold without a membership, whose instances differ only in what a
    /// run picks.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.sink, self.member) {
            (Sinks::Grouped(sink), _) => {
                let kernel = match self.lanes {
                    Lanes::Selected => "groupby_gather",
                    Lanes::Masked => "groupby_value_masked",
                    Lanes::KeyMasked => "groupby_key_masked",
                    Lanes::Every => "eager_aggregate",
                };
                write!(f, ", sink: {}", sink.name(kernel))
            }
            (Sinks::Scalar(sinks), Membership::Bitmap) => write!(
                f,
                ", masked probe, sink: fold_masked_bitmap<{}>",
                sinks.len()
            ),
            (Sinks::Scalar(_), Membership::None) => Ok(()),
        }
    }
}

/// The executable shapes (the plan patterns §§ III-A–III-E optimize).
#[derive(Debug, Clone)]
pub(crate) enum Shape {
    Agg(AggShape),
    WindowScan(WindowShape),
}

/// scan → filter? → restrict through zero or more FK join edges → (scalar |
/// grouped) aggregation. With no edges this is the scan aggregation; with
/// them, the fact table's tiles are restricted through the edges' membership
/// structures in the planned probe order (a two-table semijoin is the
/// one-edge case; edges may nest into chains) and the survivors aggregated —
/// into one row, or (the groupjoin, § III-E) by the FK of the join's single
/// edge.
#[derive(Debug, Clone)]
pub(crate) struct AggShape {
    pub table: String,
    pub filter: Option<Expr>,
    /// Direct edges in chosen probe order.
    pub edges: Vec<JoinEdge>,
    /// How that order was determined (of no edges, trivially `Dp`).
    pub order_method: JoinOrderMethod,
    /// Group by this column — with edges, the FK of the one edge; `None` for
    /// a scalar aggregation.
    pub group: Option<String>,
    pub aggs: Vec<AggSpec>,
    /// The strategy priced.
    pub mode: AggMode,
    /// The loop that runs it.
    pub instance: Instance,
    /// The group table of a grouped aggregation.
    pub group_table: GroupTableRepr,
    /// `filter`, the aggregate inputs and (without edges) `group` lowered
    /// over `table` (every shape carries its stages' programs, lowered once
    /// at plan time and cached with the plan).
    pub program: Arc<TileProgram>,
}

/// scan → filter? → sort by (partition, order, row) → window functions.
/// With no functions this degenerates to a row projection.
#[derive(Debug, Clone)]
pub(crate) struct WindowShape {
    pub table: String,
    pub filter: Option<Expr>,
    pub partition_by: Option<String>,
    pub order_by: Vec<SortKey>,
    pub frame: FrameSpec,
    pub funcs: Vec<WindowFnSpec>,
    pub select: Vec<String>,
    pub strategy: WindowStrategy,
    /// `filter` lowered over `table`.
    pub scan_program: Arc<TileProgram>,
    /// The columns phase 2 materializes for qualifying rows, in order:
    /// partition key (if any), order keys, projected columns, then the
    /// inputs of the functions that have one.
    pub gather_program: Arc<TileProgram>,
}

impl Shape {
    /// Short name of the access strategy driving this shape's loop body.
    fn strategy_name(&self) -> String {
        match self {
            Shape::Agg(a) => a.strategy_name(),
            Shape::WindowScan(w) if w.funcs.is_empty() => "projection".to_string(),
            Shape::WindowScan(w) => w.strategy.name().to_string(),
        }
    }

    pub(crate) fn describe(&self) -> String {
        match self {
            Shape::Agg(a) => a.describe(),
            Shape::WindowScan(w) => w.describe(),
        }
    }

    /// Output column names of the core pipeline, for validating post-op
    /// sort keys at plan time.
    pub(crate) fn output_columns(&self) -> Vec<String> {
        match self {
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

    /// The table whose filter drives the plan's *first* operator — the one an
    /// observed selectivity is attributed to under adaptive statistics.
    pub(crate) fn primary_stats_table(&self) -> Option<&str> {
        match self {
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
}

impl JoinEdge {
    /// Name of the operator that builds the membership structure over
    /// `parent`, as the metrics, the verifier and EXPLAIN know it.
    pub(crate) fn build_op(parent: &str) -> String {
        format!("multijoin-build({parent})")
    }

    /// Name of the operator that probes the edge into `parent`.
    pub(crate) fn probe_op(parent: &str) -> String {
        format!("multijoin-probe({parent})")
    }
}

impl AggShape {
    /// Name of the aggregating operator, as the metrics and the verifier
    /// know it: a function of edge count and key only.
    pub(crate) fn op_name(&self) -> String {
        match (self.edges.len(), &self.group) {
            (0, None) => format!("agg({})", self.table),
            (0, Some(_)) => format!("groupby-agg({})", self.table),
            _ => format!("multijoin-agg({})", self.table),
        }
    }

    fn strategy_name(&self) -> String {
        let join = |priced: &str| {
            format!(
                "multi-join ({} edges, order: {}{priced}{})",
                count_edges(&self.edges),
                self.order_method.name(),
                self.instance
            )
        };
        match self.mode {
            AggMode::By(s) => format!("{}{}", s.name(), self.instance),
            AggMode::Probe { .. } => join(""),
            AggMode::Join(s) => join(&format!(", {}", s.name())),
        }
    }

    fn describe(&self) -> String {
        let AggShape { table, mode, .. } = self;
        let filter = self.filter.as_ref().map_or("", |_| "Filter <- ");
        let group = self.group.as_deref();
        if let AggMode::By(strategy) = mode {
            return format!(
                "Aggregate[{}] ({} aggs{}) <- {filter}Scan {table}",
                strategy.name(),
                self.aggs.len(),
                group.map(|g| format!(", group by {g}")).unwrap_or_default(),
            );
        }
        format!(
            "Aggregate{} <- MultiJoin[order: {}] {filter}{table} -> [{}]{}",
            match (mode, group) {
                (AggMode::Join(s), Some(g)) => format!("[{}] (group by {g})", s.name()),
                _ => String::new(),
            },
            self.order_method.name(),
            self.edges
                .iter()
                .map(render_edge)
                .collect::<Vec<_>>()
                .join(", "),
            match mode {
                AggMode::Probe { masked: true } => " (probe: masked)",
                _ => "",
            },
        )
    }
}

impl WindowShape {
    fn describe(&self) -> String {
        let WindowShape { table, funcs, .. } = self;
        let filter = self.filter.as_ref().map_or("", |_| "Filter <- ");
        if funcs.is_empty() {
            return format!("Project <- {filter}Scan {table}");
        }
        format!(
            "Window[{}] ({} fns{}) <- {filter}Scan {table}",
            self.strategy.name(),
            funcs.len(),
            self.partition_by
                .as_ref()
                .map(|p| format!(", partition by {p}"))
                .unwrap_or_default(),
        )
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
