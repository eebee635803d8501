//! Execution: what runs a planned [`crate::physical::Shape`] on morsel
//! workers.
//!
//! Every aggregation — scalar or grouped, over a plain scan or through any
//! number of FK join edges — is one morsel driver ([`pipeline`]) composed
//! with one of two sinks ([`sinks`]); the join edges' membership structures
//! come from [`build`]; [`window`] is the one shape that is not an
//! aggregation.

use std::sync::Arc;
use std::time::Instant;

use crate::engine::QueryResult;
use crate::error::PlanError;
use crate::metrics::{MetricsLevel, OpMetrics};
use crate::physical::{JoinEdge, PostOp};
use crate::tile::{Regs, TileProgram};
use swole_kernels::AccessCounters;
use swole_runtime::{charge_or_panic, ExecCtx, Executor, MemGauge};
use swole_storage::{FkIndex, Table};

mod build;
mod pipeline;
mod sinks;
mod window;

pub(crate) use pipeline::{exec_agg, AggStage};
pub(crate) use sinks::scalar_scratch_bytes;
pub(crate) use window::exec_window;

/// Execution options threaded into every operator.
#[derive(Clone, Copy)]
pub(crate) struct ExecOpts<'a> {
    pub executor: &'a Executor,
    pub threads: usize,
    pub morsel_rows: usize,
    pub level: MetricsLevel,
    /// The plan's certificate proves every arithmetic site overflow-safe, so
    /// the scalar sinks may run the unchecked kernels.
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

/// Apply the plan's result-level post-operators (`ORDER BY`, `LIMIT`) to a
/// materialized result, in order. The sort is stable over the core
/// pipeline's (already deterministic) row order, so ties are deterministic
/// at any thread count.
pub(crate) fn apply_post_ops(
    post: &[PostOp],
    res: &mut QueryResult,
    ops: &mut Vec<OpMetrics>,
    level: MetricsLevel,
    ctx: &Arc<ExecCtx>,
) -> Result<(), PlanError> {
    let counting = level.counting();
    for p in post {
        ctx.check()?;
        let t0 = level.timing().then(Instant::now);
        let rows_in = res.rows.len() as u64;
        match p {
            PostOp::Sort { keys } => {
                let mut key_idx = Vec::with_capacity(keys.len());
                for k in keys {
                    key_idx.push((res.column_index(&k.column)?, k.desc));
                }
                // The permutation vector is the sort's one materialized
                // artifact; charge it like any other selection vector.
                ctx.gauge.try_charge(res.rows.len().saturating_mul(4))?;
                let mut perm: Vec<u32> = (0..res.rows.len() as u32).collect();
                perm.sort_by(|&a, &b| {
                    let (ra, rb) = (&res.rows[a as usize], &res.rows[b as usize]);
                    for &(i, desc) in &key_idx {
                        let ord = ra[i].cmp(&rb[i]);
                        let ord = if desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    a.cmp(&b) // deterministic tie-break: pre-sort position
                });
                res.rows = perm
                    .into_iter()
                    .map(|i| std::mem::take(&mut res.rows[i as usize]))
                    .collect();
            }
            PostOp::Limit { n } => {
                res.rows.truncate(*n);
            }
        }
        if counting {
            let name = match p {
                PostOp::Sort { .. } => "sort",
                PostOp::Limit { .. } => "limit",
            };
            let mut op = OpMetrics::named(name);
            op.access.rows_in = rows_in;
            op.access.rows_out = res.rows.len() as u64;
            op.wall_nanos = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
            ops.push(op);
        }
    }
    Ok(())
}
