//! The window pipeline: a parallel filter scan to a selection vector, then
//! a deterministic sequential sort + frame pass.

use std::sync::Arc;
use std::time::Instant;

use super::{apply_post_ops, ExecOpts};
use crate::error::PlanError;
use crate::logical::{FrameSpec, WindowFunc};
use crate::metrics::OpMetrics;
use crate::physical::{PostOp, WindowShape};
use crate::result::{QueryResult, Rows};
use crate::tile::{Regs, TileProgram};
use swole_cost::WindowStrategy;
use swole_kernels::{tiles, tiles_in, AccessCounters};
use swole_runtime::{charge_or_panic, ExecCtx, MemGauge};
use swole_storage::Table;
use swole_verify::ir::{Access, AccessSig};

/// Thread-local state of the filter scan: the scan's register file plus
/// the worker's qualifying row ids, appended morsel by morsel, and where
/// each claimed morsel's part of them starts.
struct ScanAcc {
    regs: Regs,
    out: Vec<u32>,
    /// `(morsel start row, offset into out, length)` per claimed morsel.
    segs: Vec<(usize, usize, usize)>,
    ctr: AccessCounters,
}

impl ScanAcc {
    fn new(gauge: &MemGauge, program: &TileProgram) -> ScanAcc {
        charge_or_panic(gauge, program.scratch_bytes());
        ScanAcc {
            regs: Regs::new(program),
            out: Vec::new(),
            segs: Vec::new(),
            ctr: AccessCounters::default(),
        }
    }
}

/// How the window pipeline reads its streams under `strategy`: the filter
/// in order, the partition and order keys through the sorted selection
/// vector (compared on run edges only), and the frame inputs once each as
/// the frame slides (the sequential frame scan) or re-read for every output
/// row (re-evaluation).
pub(crate) fn window_access(strategy: WindowStrategy) -> AccessSig {
    AccessSig {
        predicate: Some(Access::Sequential),
        agg_input: Some(match strategy {
            WindowStrategy::SequentialFrameScan => Access::Sequential,
            WindowStrategy::ConditionalReeval => Access::Conditional,
        }),
        group_key: Some(Access::Conditional),
        structure: None,
    }
}

/// Stitch the workers' segments back into table order. The segments form
/// an exact disjoint cover of the qualifying rows, so the result is
/// identical to a sequential scan regardless of which worker claimed what.
fn stitch(partials: &[ScanAcc]) -> Vec<u32> {
    let mut segs: Vec<(usize, &[u32])> = partials
        .iter()
        .flat_map(|p| {
            p.segs
                .iter()
                .map(|&(start, off, len)| (start, &p.out[off..off + len]))
        })
        .collect();
    segs.sort_unstable_by_key(|(start, _)| *start);
    segs.iter().flat_map(|(_, seg)| *seg).copied().collect()
}

/// Materialize every output of `program` for the (ascending) qualifying
/// row ids, one pass over the tiles that hold any, through the same tile
/// evaluation as the aggregate paths — so dictionary codes, decimals and
/// CASE expressions behave exactly as they do there. The register file is
/// the pass's one temporary; it is charged before it is allocated.
fn gather_columns(
    table: &Arc<Table>,
    program: &Arc<TileProgram>,
    n_outputs: usize,
    row_ids: &[u32],
    ctx: &ExecCtx,
) -> Result<Vec<Vec<i64>>, PlanError> {
    let bound = program.bind(table)?;
    ctx.gauge.try_charge(program.scratch_bytes())?;
    let mut regs = Regs::new(program);
    let mut out: Vec<Vec<i64>> = (0..n_outputs)
        .map(|_| Vec::with_capacity(row_ids.len()))
        .collect();
    let mut i = 0;
    for (start, len) in tiles(table.len()) {
        if i >= row_ids.len() {
            break;
        }
        let end = start + len;
        let i0 = i;
        while i < row_ids.len() && (row_ids[i] as usize) < end {
            i += 1;
        }
        if i == i0 {
            continue;
        }
        bound.run(&mut regs, start, len);
        for (o, col) in out.iter_mut().enumerate() {
            let v = regs.val(program.output_reg(o));
            col.extend(row_ids[i0..i].iter().map(|&r| v[r as usize - start]));
        }
    }
    Ok(out)
}

/// True when two qualifying rows are window-order peers (equal on every
/// order key; direction is irrelevant for equality).
fn order_peers(ord: &[Vec<i64>], a: usize, b: usize) -> bool {
    ord.iter().all(|k| k[a] == k[b])
}

/// Execute a window pipeline: parallel filter to a selection vector, then
/// a deterministic sequential sort + frame pass. Frame sums use wrapping
/// arithmetic, and the sequential frame scan's subtract-on-evict is the
/// exact inverse of its add (mod 2^64), so both strategies produce
/// bit-identical outputs at any thread count. The plan's `post` operators
/// run on the output while it is still columns, so under `ORDER BY … LIMIT
/// n` only `n` rows are ever assembled.
pub(crate) fn exec_window(
    table: &Arc<Table>,
    shape: &WindowShape,
    post: &[PostOp],
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    let WindowShape {
        scan_program,
        gather_program,
        partition_by,
        order_by,
        funcs,
        select,
        ..
    } = shape;
    let (frame, strategy) = (shape.frame, shape.strategy);
    let n = table.len();
    let counting = opts.level.counting();
    let t0 = opts.level.timing().then(Instant::now);
    // Phase 1: qualifying-row selection vector, produced on morsel workers.
    ctx.gauge.try_charge(n.saturating_mul(4))?;
    let bound = scan_program.bind(table)?;
    let init = {
        let ctx = Arc::clone(ctx);
        let program = Arc::clone(scan_program);
        move || ScanAcc::new(&ctx.gauge, &program)
    };
    let body = move |w: &mut ScanAcc, m_start: usize, m_len: usize| {
        if counting {
            w.ctr.morsels += 1;
            w.ctr.rows_in += m_len as u64;
            if bound.program().has_filter() {
                w.ctr.predicate_evals += m_len as u64;
            }
        }
        let off = w.out.len();
        for (start, len) in tiles_in(m_start, m_len) {
            bound.run(&mut w.regs, start, len);
            let k = bound.select(&mut w.regs, len);
            w.out
                .extend(w.regs.idx[..k].iter().map(|&j| start as u32 + j));
        }
        let found = w.out.len() - off;
        if counting {
            w.ctr.rows_out += found as u64;
        }
        w.segs.push((m_start, off, found));
    };
    let partials = opts
        .executor
        .run_morsels(ctx, n, opts.morsel_rows, init, body)?;
    let mut op = counting.then(|| OpMetrics::named(format!("window({})", shape.table)));
    if let Some(op) = op.as_mut() {
        for p in &partials {
            op.access.merge(&p.ctr);
        }
    }
    let row_ids: Vec<u32> = stitch(&partials);
    drop(partials);
    let m = row_ids.len();

    // Phase 2: materialize partition key, order keys, projected columns and
    // function inputs for the qualifying rows (charged up front).
    let n_mat = 1 + order_by.len() + select.len() + funcs.len();
    ctx.gauge
        .try_charge(m.saturating_mul(8).saturating_mul(n_mat))?;
    let n_inputs = funcs.iter().filter(|f| f.expr.is_some()).count();
    let n_gathered = usize::from(partition_by.is_some()) + order_by.len() + select.len() + n_inputs;
    let mut gathered =
        gather_columns(table, gather_program, n_gathered, &row_ids, ctx)?.into_iter();
    let mut take = |k: usize| -> Vec<Vec<i64>> { gathered.by_ref().take(k).collect() };
    let part: Vec<i64> = match partition_by {
        Some(_) => take(1).pop().expect("partition key was lowered"),
        None => vec![0; m],
    };
    let ord = take(order_by.len());
    let sel_cols = take(select.len());
    let inputs: Vec<Vec<i64>> = funcs
        .iter()
        .map(|f| match &f.expr {
            Some(_) => take(1).pop().expect("function input was lowered"),
            None => vec![1; m],
        })
        .collect();

    // Phase 3: the window order — (partition, order keys, row id). The
    // trailing row id breaks every tie, so the permutation is unique and
    // the comparator total: `sort_unstable` is deterministic here.
    let mut perm: Vec<u32> = (0..m as u32).collect();
    perm.sort_unstable_by(|&ai, &bi| {
        let (a, b) = (ai as usize, bi as usize);
        let mut o = part[a].cmp(&part[b]);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
        for (k, key) in order_by.iter().zip(&ord) {
            o = key[a].cmp(&key[b]);
            if k.desc {
                o = o.reverse();
            }
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        row_ids[a].cmp(&row_ids[b])
    });

    // Phase 4: frame computation per partition run, in window order.
    // `extra_touches` counts frame-state reads beyond one sequential pass —
    // the window analogue of wasted lanes (re-evaluation re-reads, and the
    // sliding frame's evictions), reported deterministically.
    let mut outputs: Vec<Vec<i64>> = funcs.iter().map(|_| vec![0i64; m]).collect();
    let mut extra_touches: u64 = 0;
    let mut run_start = 0usize;
    while run_start < m {
        let mut run_end = run_start + 1;
        while run_end < m && part[perm[run_end] as usize] == part[perm[run_start] as usize] {
            run_end += 1;
        }
        let len = run_end - run_start;
        for (fi, f) in funcs.iter().enumerate() {
            let val = |i: usize| -> i64 {
                match f.func {
                    WindowFunc::Sum => inputs[fi][perm[run_start + i] as usize],
                    _ => 1,
                }
            };
            match f.func {
                WindowFunc::RowNumber => {
                    for i in 0..len {
                        outputs[fi][run_start + i] = (i + 1) as i64;
                    }
                }
                WindowFunc::Rank => {
                    let mut rank = 1i64;
                    for i in 0..len {
                        if i > 0
                            && !order_peers(
                                &ord,
                                perm[run_start + i - 1] as usize,
                                perm[run_start + i] as usize,
                            )
                        {
                            rank = (i + 1) as i64;
                        }
                        outputs[fi][run_start + i] = rank;
                    }
                }
                WindowFunc::Sum | WindowFunc::Count => match strategy {
                    WindowStrategy::SequentialFrameScan => match frame {
                        FrameSpec::WholePartition => {
                            let mut total = 0i64;
                            for i in 0..len {
                                total = total.wrapping_add(val(i));
                            }
                            for i in 0..len {
                                outputs[fi][run_start + i] = total;
                            }
                        }
                        FrameSpec::UnboundedPreceding => {
                            let mut acc = 0i64;
                            for i in 0..len {
                                acc = acc.wrapping_add(val(i));
                                outputs[fi][run_start + i] = acc;
                            }
                        }
                        FrameSpec::Preceding(k) => {
                            let mut acc = 0i64;
                            for i in 0..len {
                                acc = acc.wrapping_add(val(i));
                                if i > k {
                                    // Exact inverse of the add (mod 2^64):
                                    // evicting restores the k-row frame sum
                                    // bit-for-bit.
                                    acc = acc.wrapping_sub(val(i - k - 1));
                                    extra_touches += 1;
                                }
                                outputs[fi][run_start + i] = acc;
                            }
                        }
                    },
                    WindowStrategy::ConditionalReeval => {
                        for i in 0..len {
                            let lo = match frame {
                                FrameSpec::WholePartition => 0,
                                FrameSpec::UnboundedPreceding => 0,
                                FrameSpec::Preceding(k) => i.saturating_sub(k),
                            };
                            let hi = match frame {
                                FrameSpec::WholePartition => len - 1,
                                _ => i,
                            };
                            let mut acc = 0i64;
                            for j in lo..=hi {
                                acc = acc.wrapping_add(val(j));
                            }
                            extra_touches += (hi - lo) as u64;
                            outputs[fi][run_start + i] = acc;
                        }
                    }
                },
            }
        }
        run_start = run_end;
    }

    let mut columns: Vec<String> = select.to_vec();
    columns.extend(funcs.iter().map(|f| f.name.clone()));

    // Phase 5: the post-operators choose among the rows in window order
    // (itself deterministic), and the rows they leave are assembled.
    let cell = |i: usize, c: usize| match c.checked_sub(sel_cols.len()) {
        None => sel_cols[c][perm[i] as usize],
        Some(f) => outputs[f][i],
    };
    let mut post_ops = Vec::new();
    let kept = apply_post_ops(post, &columns, m, cell, &mut post_ops, opts.level, ctx)?;
    let width = columns.len();
    let mut values = Vec::with_capacity(kept.len * width);
    for r in 0..kept.len {
        let i = kept.source(r);
        values.extend((0..width).map(|c| cell(i, c)));
    }
    if let Some(op) = op.as_mut() {
        op.access.wasted_lanes += extra_touches;
        // The post-operators report their own time.
        let in_post: u64 = post_ops.iter().map(|o| o.wall_nanos).sum();
        op.wall_nanos = t0.map_or(0, |t| t.elapsed().as_nanos() as u64 - in_post);
    }
    let key_dict = select
        .first()
        .and_then(|c| table.column(c))
        .and_then(|c| c.as_dict())
        .map(|d| d.shared_dictionary());
    Ok((
        QueryResult {
            columns,
            rows: Rows::from_values(width, values),
            metrics: None,
            key_dict,
        },
        op.into_iter().chain(post_ops).collect(),
    ))
}
