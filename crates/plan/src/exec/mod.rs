//! Execution: what runs a planned [`crate::physical::Shape`] on morsel
//! workers.
//!
//! Every aggregation — scalar or grouped, over a plain scan or through any
//! number of FK join edges — is one morsel driver ([`pipeline`]) composed
//! with one of two sinks ([`sinks`]); the join edges' membership structures
//! come from [`build`]; [`window`] is the one shape that is not an
//! aggregation. [`execute_shape`] is the way in: it pins the plan's tables
//! and FK columns and dispatches on the shape.

use std::sync::Arc;
use std::time::Instant;

use crate::catalog::Database;
use crate::error::PlanError;
use crate::metrics::{MetricsLevel, OpMetrics};
use crate::physical::{JoinEdge, PhysicalPlan, PostOp, Shape};
use crate::result::QueryResult;
use swole_runtime::{ExecCtx, Executor};
use swole_storage::{FkIndex, Table};
use swole_verify::ir::{Access, AccessSig};
use swole_verify::OverflowProof;

mod build;
mod pipeline;
mod sinks;
mod window;

pub(crate) use build::build_access;
use pipeline::{exec_agg, AggStage};
pub(crate) use sinks::scalar_scratch_bytes;
use window::exec_window;
pub(crate) use window::window_access;

/// Execution options threaded into every operator.
#[derive(Clone, Copy)]
pub(crate) struct ExecOpts<'a> {
    pub executor: &'a Executor,
    pub morsel_rows: usize,
    pub level: MetricsLevel,
    /// The plan certificate's proof: at `I32Tile`, scalar masked sums in
    /// `i32` lanes.
    pub overflow: OverflowProof,
}

/// The positional FK mapping, pinned as owned data so shared-pool worker
/// closures (which outlive the submitting call stack) can read it without
/// borrowing from the database guard.
#[derive(Clone)]
pub(crate) enum FkSource {
    /// A registered FK index.
    Index(Arc<FkIndex>),
    /// The raw `u32` FK column (by index) of the (pinned, immutable) child
    /// table — validated at construction, so `slice` cannot fail.
    Column(Arc<Table>, usize),
}

impl FkSource {
    /// The positional FK mapping probe→parent: the registered FK index if
    /// present, otherwise the raw `u32` FK column (dense parent keys).
    /// Planning resolves it too, to validate the edge.
    pub(crate) fn resolve(
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

    fn slice(&self) -> &[u32] {
        match self {
            FkSource::Index(idx) => idx.positions(),
            FkSource::Column(t, col) => t
                .column_at(*col)
                .as_u32()
                .expect("validated u32 FK column on an immutable table"),
        }
    }
}

/// One planned join edge with its parent table and FK column pinned as
/// `Arc` snapshots, so execution cannot drift from the catalog mid-query.
pub(crate) struct BoundEdge<'a> {
    pub edge: &'a JoinEdge,
    pub parent_t: Arc<Table>,
    /// FK on the *child* side of this edge (the fact for direct edges, the
    /// intermediate parent for chain edges).
    pub fk: FkSource,
    pub children: Vec<BoundEdge<'a>>,
}

impl<'a> BoundEdge<'a> {
    /// Pin every table and FK column of a join forest for the query's
    /// lifetime, recursing through chain edges (each nested edge's FK lives
    /// on its *parent* table, i.e. the child of that nested edge).
    fn bind_all(
        db: &Database,
        child: &str,
        edges: &'a [JoinEdge],
    ) -> Result<Vec<BoundEdge<'a>>, PlanError> {
        edges
            .iter()
            .map(|e| {
                Ok(BoundEdge {
                    edge: e,
                    parent_t: db.table_arc(&e.parent)?,
                    fk: FkSource::resolve(db, child, &e.fk_col, &e.parent)?,
                    children: BoundEdge::bind_all(db, &e.parent, &e.children)?,
                })
            })
            .collect()
    }
}

/// Execute a physical plan against an execution context, returning the
/// result plus per-operator metrics (empty below
/// [`MetricsLevel::Counters`]). Planner/executor drift (a table or FK
/// index dropped after planning) propagates as a [`PlanError`] instead
/// of panicking. Input tables and FK indexes are pinned as `Arc`
/// snapshots for the query's lifetime.
pub(crate) fn execute_shape(
    db: &Database,
    plan: &PhysicalPlan,
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    let level = opts.level;
    // Upfront cooperative check: zero-morsel inputs still observe an
    // already-expired deadline or cancelled handle.
    ctx.check()?;
    if let Some(row) = &plan.shortcut {
        // Statistics-backed answer: the planner proved the result from
        // the catalog, so no table access happens at all.
        let mut res = QueryResult::new(plan.shape.output_columns(), vec![row.clone()]);
        let mut ops = Vec::new();
        if level.counting() {
            let mut op = OpMetrics::named("stats-shortcut");
            op.access.rows_out = 1;
            ops.push(op);
        }
        post_process(&plan.post, &mut res, &mut ops, level, ctx)?;
        return Ok((res, ops));
    }
    match &plan.shape {
        Shape::Agg(shape) => {
            let table = &db.table_arc(&shape.table)?;
            let edges = &BoundEdge::bind_all(db, &shape.table, &shape.edges)?;
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

/// What the post-operators leave of a result: the first `len` rows of
/// `order` (row indices into the operators' input), or of the input order
/// itself while no sort has run.
pub(crate) struct Kept {
    order: Option<Vec<u32>>,
    pub len: usize,
}

impl Kept {
    /// The input row that is the result's row `r`.
    pub fn source(&self, r: usize) -> usize {
        self.order.as_ref().map_or(r, |o| o[r] as usize)
    }

    /// Cut and reorder materialized `rows` to what is kept of them.
    pub fn apply(self, rows: &mut Vec<Vec<i64>>) {
        if let Some(order) = &self.order {
            *rows = order[..self.len]
                .iter()
                .map(|&i| std::mem::take(&mut rows[i as usize]))
                .collect();
        }
        rows.truncate(self.len);
    }
}

/// Apply the plan's result-level post-operators (`ORDER BY`, `LIMIT`), in
/// order, to `n_rows` result rows read through `cell(row, column)`, and
/// return which of them are left. Rows are judged before they are
/// assembled, so a pipeline that holds its output as columns assembles
/// only the survivors. The sort is stable over the core pipeline's
/// (already deterministic) row order, so ties are deterministic at any
/// thread count.
pub(crate) fn apply_post_ops(
    post: &[PostOp],
    columns: &[String],
    n_rows: usize,
    cell: impl Fn(usize, usize) -> i64,
    ops: &mut Vec<OpMetrics>,
    level: MetricsLevel,
    ctx: &Arc<ExecCtx>,
) -> Result<Kept, PlanError> {
    let counting = level.counting();
    let mut kept = Kept {
        order: None,
        len: n_rows,
    };
    for p in post {
        ctx.check()?;
        let t0 = level.timing().then(Instant::now);
        let rows_in = kept.len as u64;
        match p {
            PostOp::Sort { keys } => {
                let mut key_idx = Vec::with_capacity(keys.len());
                for k in keys {
                    let i = columns
                        .iter()
                        .position(|c| *c == k.column)
                        .ok_or_else(|| PlanError::UnknownResultColumn(k.column.clone()))?;
                    key_idx.push((i, k.desc));
                }
                // The permutation vector is the sort's one materialized
                // artifact; charge it like any other selection vector.
                ctx.gauge.try_charge(kept.len.saturating_mul(4))?;
                let mut perm: Vec<u32> = (0..kept.len).map(|r| kept.source(r) as u32).collect();
                // Stable, so ties keep their pre-sort order.
                perm.sort_by(|&a, &b| {
                    for &(i, desc) in &key_idx {
                        let ord = cell(a as usize, i).cmp(&cell(b as usize, i));
                        let ord = if desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                kept.order = Some(perm);
            }
            PostOp::Limit { n } => kept.len = kept.len.min(*n),
        }
        if counting {
            let name = match p {
                PostOp::Sort { .. } => "sort",
                PostOp::Limit { .. } => "limit",
            };
            let mut op = OpMetrics::named(name);
            op.access.rows_in = rows_in;
            op.access.rows_out = kept.len as u64;
            op.wall_nanos = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
            ops.push(op);
        }
    }
    Ok(kept)
}

/// How a post-operator reads the result rows: the sort re-reads them through
/// its permutation (conditional, order-dependent positions), the limit
/// truncates a prefix and reads nothing.
pub(crate) fn post_access(p: &PostOp) -> AccessSig {
    AccessSig {
        predicate: None,
        agg_input: None,
        group_key: matches!(p, PostOp::Sort { .. }).then_some(Access::Conditional),
        structure: None,
    }
}

/// [`apply_post_ops`] on a result whose rows are already assembled.
fn post_process(
    post: &[PostOp],
    res: &mut QueryResult,
    ops: &mut Vec<OpMetrics>,
    level: MetricsLevel,
    ctx: &Arc<ExecCtx>,
) -> Result<(), PlanError> {
    let cell = |r: usize, c: usize| res.rows[r][c];
    let kept = apply_post_ops(post, &res.columns, res.rows.len(), cell, ops, level, ctx)?;
    kept.apply(&mut res.rows);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::build::{build_edge_side, BuildSide};
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::tile::TileProgram;
    use swole_bitmap::PositionalBitmap;
    use swole_cost::{BitmapBuild, SemiJoinStrategy};
    use swole_kernels::{MORSEL_ROWS, TILE};
    use swole_storage::ColumnData;

    fn edge(t: &Table, lt: i64, fk_col: &str, strategy: SemiJoinStrategy) -> JoinEdge {
        let filter =
            Expr::col(t.column_names().next().expect("a column")).cmp(CmpOp::Lt, Expr::lit(lt));
        JoinEdge {
            parent: t.name().to_string(),
            parent_program: Arc::new(TileProgram::lower(t, Some(&filter), &[]).expect("lowers")),
            parent_filter: Some(filter),
            fk_col: fk_col.to_string(),
            strategy,
            children: Vec::new(),
            est_selectivity: 0.5,
        }
    }

    /// Every build strategy, with and without a chain edge, sparse and
    /// dense, is bit-identical to the structure built from the whole byte
    /// mask, at threads {1, 2, 8}, with one or many morsels per worker. The
    /// parent `P` has 64 Ki + 37 rows, so its last morsel ends mid-word; its
    /// chain edge joins the 1 003-row `Q`.
    #[test]
    fn builds_from_the_tile_loop_match_the_byte_mask_reference() {
        let (p_rows, q_rows) = (MORSEL_ROWS + 37, 1_003u64);
        let mut state = 7u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % m
        };
        let v: Vec<i32> = (0..p_rows).map(|_| next(100) as i32).collect();
        let fk: Vec<u32> = (0..p_rows).map(|_| next(q_rows) as u32).collect();
        let w: Vec<i32> = (0..q_rows).map(|_| next(100) as i32).collect();
        let p = Table::new("P")
            .with_column("v", ColumnData::I32(v.clone()))
            .with_column("q", ColumnData::U32(fk.clone()));
        let q = Table::new("Q").with_column("w", ColumnData::I32(w.clone()));
        let (p, q) = (Arc::new(p), Arc::new(q));
        let executors = [1, 2, 8].map(Executor::new);
        let strategies = [
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector),
            SemiJoinStrategy::Hash,
        ];
        for (lt, chained) in [(2, false), (2, true), (60, false), (60, true)] {
            let mask: Vec<u8> = (0..v.len())
                .map(|i| (v[i] < lt as i32 && (!chained || w[fk[i] as usize] < 50)) as u8)
                .collect();
            let want = PositionalBitmap::from_predicate_bytes(&mask);
            for strategy in strategies {
                let mut e = edge(&p, lt, "p", strategy);
                if chained {
                    let bitmap = SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional);
                    e.children.push(edge(&q, 50, "q", bitmap));
                }
                let bound = BoundEdge {
                    edge: &e,
                    parent_t: Arc::clone(&p),
                    fk: FkSource::Column(Arc::clone(&p), 1),
                    children: e
                        .children
                        .iter()
                        .map(|c| BoundEdge {
                            edge: c,
                            parent_t: Arc::clone(&q),
                            fk: FkSource::Column(Arc::clone(&p), 1),
                            children: Vec::new(),
                        })
                        .collect(),
                };
                for (executor, morsel_rows) in executors
                    .iter()
                    .flat_map(|e| [(e, MORSEL_ROWS), (e, 4 * TILE)])
                {
                    let opts = ExecOpts {
                        executor,
                        morsel_rows,
                        level: MetricsLevel::Counters,
                        overflow: OverflowProof::I64,
                    };
                    let ctx = Arc::new(ExecCtx::unbounded());
                    let mut ops = Vec::new();
                    let side =
                        build_edge_side(&bound, false, opts, &ctx, &mut ops).expect("builds");
                    let at =
                        format!("σ<{lt} chained={chained} {strategy:?} rows/morsel={morsel_rows}");
                    match side {
                        BuildSide::Bitmap(bm) => assert_eq!(bm, want, "{at}"),
                        BuildSide::Set(set) => {
                            assert_eq!(set.len(), want.count_ones(), "{at}");
                            assert!(
                                (0..mask.len()).all(|i| set.contains(i as i64) == want.get(i)),
                                "{at}"
                            );
                        }
                    }
                    assert_eq!(ops[0].access.rows_out, want.count_ones() as u64, "{at}");
                    assert_eq!(ops.len(), 1 + usize::from(chained), "{at}");
                }
            }
        }
    }
}
