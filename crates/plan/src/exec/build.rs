//! Build sides: each join edge's membership structure, materialized from
//! its parent's qualifying mask before any probe morsel is claimed.

use std::sync::Arc;
use std::time::Instant;

use super::{stitch, BoundEdge, ExecOpts, ScanAcc};
use crate::error::PlanError;
use crate::metrics::OpMetrics;
use crate::physical::JoinEdge;
use crate::tile::TileProgram;
use swole_bitmap::PositionalBitmap;
use swole_cost::{BitmapBuild, SemiJoinStrategy};
use swole_ht::KeySet;
use swole_kernels::{predicate, selvec, tiles, tiles_in};
use swole_runtime::ExecCtx;
use swole_storage::Table;

/// The semijoin build side, shared read-only across probe workers.
pub(super) enum BuildSide {
    Set(KeySet),
    Bitmap(PositionalBitmap),
}

/// Evaluate the build-side predicate mask over the whole build table on
/// morsel workers.
fn build_mask(
    build: &Arc<Table>,
    program: &Arc<TileProgram>,
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
) -> Result<Vec<u8>, PlanError> {
    let n = build.len();
    ctx.gauge.try_charge(n)?;
    let bound = program.bind(build)?;
    let init = {
        let ctx = Arc::clone(ctx);
        let program = Arc::clone(program);
        move || ScanAcc::<u8>::new(&ctx.gauge, &program)
    };
    let body = move |w: &mut ScanAcc<u8>, m_start: usize, m_len: usize| {
        w.segs.push((m_start, w.out.len(), m_len));
        for (start, len) in tiles_in(m_start, m_len) {
            bound.run(&mut w.regs, start, len);
            w.out.extend_from_slice(bound.filter(&w.regs, len));
        }
    };
    let partials = opts
        .executor
        .run_morsels(ctx, n, opts.morsel_rows, init, body)?;
    Ok(stitch(&partials, n))
}

/// Materialize a membership structure over `n` build positions from their
/// qualifying mask, charging each pullup temporary (key-set storage,
/// selection vector, bitmap words) to the gauge before it is built.
fn build_side_from_mask(
    mask: &[u8],
    strategy: SemiJoinStrategy,
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
) -> Result<BuildSide, PlanError> {
    let n = mask.len();
    let bitmap_bytes = PositionalBitmap::bytes_for(n);
    Ok(match strategy {
        SemiJoinStrategy::Hash => {
            let mut set = KeySet::for_build(n);
            let before = set.size_bytes();
            ctx.gauge.try_charge(before)?;
            for (pos, &c) in mask.iter().enumerate() {
                if c != 0 {
                    set.insert(pos as i64);
                }
            }
            if set.size_bytes() > before {
                ctx.gauge.try_charge(set.size_bytes() - before)?;
            }
            BuildSide::Set(set)
        }
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional) => {
            ctx.gauge.try_charge(bitmap_bytes)?;
            BuildSide::Bitmap(PositionalBitmap::from_predicate_bytes_parallel(
                mask,
                opts.threads,
            ))
        }
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector) => {
            let mut sel = Vec::new();
            for (start, len) in tiles(n) {
                selvec::append_nobranch(&mask[start..start + len], start as u32, &mut sel);
            }
            ctx.gauge.try_charge(sel.len() * 4 + bitmap_bytes)?;
            BuildSide::Bitmap(PositionalBitmap::from_selection(n, &sel))
        }
    })
}

impl BuildSide {
    /// 1 when build position `pos` qualifies.
    #[inline]
    pub(super) fn hit(&self, pos: usize) -> usize {
        match self {
            BuildSide::Set(set) => set.contains(pos as i64) as usize,
            BuildSide::Bitmap(bm) => bm.get_bit(pos) as usize,
        }
    }

    /// Record the structure's footprint on its build operator.
    fn describe(&self, op: &mut OpMetrics) {
        match self {
            BuildSide::Set(set) => {
                op.ht.inserts = set.len() as u64;
                op.ht.bytes_allocated = set.size_bytes() as u64;
            }
            BuildSide::Bitmap(bm) => {
                op.bitmap_bits_set = bm.count_ones() as u64;
                op.bitmap_words = bm.word_count() as u64;
            }
        }
    }
}

/// Narrow the first `k` tile-local offsets of `idx` to the rows whose FK
/// position hits `side`, compacting in place (the write cursor trails the
/// read cursor, so no unread slot is overwritten). Returns the survivors.
#[inline]
pub(super) fn narrow_selection(idx: &mut [u32], k: usize, fk: &[u32], side: &BuildSide) -> usize {
    let mut kk = 0usize;
    for t in 0..k {
        let j = idx[t];
        idx[kk] = j;
        kk += side.hit(fk[j as usize] as usize);
    }
    kk
}

/// Qualifying mask of a join edge's parent: the parent's own filter ANDed
/// with every nested child edge's mask, folded through the child's FK
/// gather. Pushes one `multijoin-build(<parent>)` op for this edge, then
/// the nested edges' ops in order.
fn edge_parent_mask(
    e: &BoundEdge<'_>,
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
    ops: &mut Vec<OpMetrics>,
) -> Result<Vec<u8>, PlanError> {
    let t0 = opts.level.timing().then(Instant::now);
    let mut mask = build_mask(&e.parent_t, &e.edge.parent_program, opts, ctx)?;
    let mut nested_ops = Vec::new();
    for c in &e.children {
        let child_mask = edge_parent_mask(c, opts, ctx, &mut nested_ops)?;
        let fk = c.fk.slice();
        // The fold runs over the parent (dimension) table, which the cost
        // model already priced into the edge's build cost.
        for (i, m) in mask.iter_mut().enumerate() {
            *m &= child_mask[fk[i] as usize];
        }
    }
    if opts.level.counting() {
        let mut op = OpMetrics::named(JoinEdge::build_op(&e.edge.parent));
        op.access.rows_in = e.parent_t.len() as u64;
        if e.edge.parent_program.has_filter() {
            op.access.predicate_evals = e.parent_t.len() as u64;
        }
        op.access.rows_out = predicate::mask_count(&mask) as u64;
        op.wall_nanos = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
        ops.push(op);
        ops.append(&mut nested_ops);
    }
    Ok(mask)
}

/// Materialize one direct edge's membership structure from its (fully
/// chain-restricted) parent mask. Enriches the edge's own build op with the
/// structure's footprint.
pub(super) fn build_edge_side(
    e: &BoundEdge<'_>,
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
    ops: &mut Vec<OpMetrics>,
) -> Result<BuildSide, PlanError> {
    let self_op_at = ops.len();
    let mask = edge_parent_mask(e, opts, ctx, ops)?;
    let side = build_side_from_mask(&mask, e.edge.strategy, opts, ctx)?;
    if let Some(op) = ops.get_mut(self_op_at) {
        side.describe(op);
    }
    Ok(side)
}
