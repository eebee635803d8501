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
use crate::tile::{Regs, TileProgram};
use swole_kernels::AccessCounters;
use swole_runtime::{charge_or_panic, ExecCtx, Executor, MemGauge};
use swole_storage::{FkIndex, Table};

mod build;
mod pipeline;
mod sinks;
mod window;

use pipeline::{exec_agg, AggStage};
pub(crate) use sinks::scalar_scratch_bytes;
use window::exec_window;

/// Execution options threaded into every operator.
#[derive(Clone, Copy)]
pub(crate) struct ExecOpts<'a> {
    pub executor: &'a Executor,
    pub threads: usize,
    pub morsel_rows: usize,
    pub level: MetricsLevel,
    /// The plan's certificate proves every arithmetic site overflow-safe, so
    /// the scalar sinks may run the unchecked kernels and the grouped ones
    /// the adds that keep no overflow flag.
    pub overflow_proved: bool,
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

/// Thread-local state of a whole-table filter scan: the stage's register
/// file plus the worker's output, appended morsel by morsel, and where
/// each claimed morsel's part of it starts.
struct ScanAcc<T> {
    regs: Regs,
    out: Vec<T>,
    /// `(morsel start row, offset into out, length)` per claimed morsel.
    segs: Vec<(usize, usize, usize)>,
    ctr: AccessCounters,
}

impl<T> ScanAcc<T> {
    fn new(gauge: &MemGauge, program: &TileProgram) -> ScanAcc<T> {
        charge_or_panic(gauge, program.scratch_bytes());
        ScanAcc {
            regs: Regs::new(program),
            out: Vec::new(),
            segs: Vec::new(),
            ctr: AccessCounters::default(),
        }
    }
}

/// Stitch the workers' segments back into table order. The segments form
/// an exact disjoint cover of the scanned table, so the result is
/// identical to a sequential scan regardless of which worker claimed what.
fn stitch<T: Copy>(partials: &[ScanAcc<T>], capacity: usize) -> Vec<T> {
    let mut segs: Vec<(usize, &[T])> = partials
        .iter()
        .flat_map(|p| {
            p.segs
                .iter()
                .map(|&(start, off, len)| (start, &p.out[off..off + len]))
        })
        .collect();
    segs.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(capacity);
    for (_, seg) in segs {
        out.extend_from_slice(seg);
    }
    out
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
