//! The aggregation pipeline: one morsel driver for every technique of the
//! paper (§ III-A – III-E). Each tile runs the stage's program (the
//! predicate prepass and the aggregate inputs), the lanes of the stage's
//! [`crate::physical::Instance`] restrict it through the join edges, and the sink folds what
//! is left:
//!
//! ```text
//!  lanes      front end           per edge                    sink
//!  Selected   filter → idx        narrow idx to the hits      selected(k)
//!  Masked,    filter mask         the sink's membership,      masked()
//!  KeyMasked                      in its pass
//!  Every      —                   the sink's, after the merge every_lane()
//! ```
//!
//! A plain scan is the zero-edge case of every row. The loop is compiled
//! once per (front end, sink) pair, so the tile body carries no strategy,
//! aggregate-function or table-representation dispatch.

use std::sync::Arc;
use std::time::Instant;

use super::build::{build_edge_side, BuildSide};
use super::sinks::{GroupedSink, ScalarSink, Sink};
use super::{BoundEdge, ExecOpts, FkSource};
use crate::error::PlanError;
use crate::metrics::OpMetrics;
use crate::physical::{AggShape, GroupTableRepr, JoinEdge, Lanes, Sinks};
use crate::result::QueryResult;
use crate::tile::{BoundProgram, Regs, ScalarSinks};
use swole_ht::{AggTable, DenseAggTable};
use swole_kernels::{predicate, tiles_in, AccessCounters};
use swole_runtime::ExecCtx;
use swole_storage::Table;

/// One aggregation as the driver runs it: the planned shape with its table
/// and direct edges (in probe order) pinned.
#[derive(Clone, Copy)]
pub(crate) struct AggStage<'a> {
    pub shape: &'a AggShape,
    pub table: &'a Arc<Table>,
    pub edges: &'a [BoundEdge<'a>],
}

/// The driver's front end, its const parameter: the instance's [`Lanes`],
/// key-masked lanes behind the mask's.
const SELECT: u8 = Lanes::Selected as u8;
const MASK: u8 = Lanes::Masked as u8;
const EVERY_LANE: u8 = Lanes::Every as u8;

/// Each direct edge's membership structure with the FK that addresses it,
/// in probe order.
pub(super) type Sides = [(BuildSide, FkSource)];

/// One tile as a sink sees it: the program that has just run over rows
/// `at = (start, len)`, and the edges' build sides.
#[derive(Clone, Copy)]
pub(super) struct Tile<'a> {
    pub bound: &'a BoundProgram,
    pub sides: &'a Sides,
    pub at: (usize, usize),
}

/// What the morsel workers share: the bound program, the edges' build
/// sides and the sink. Built once per query, before any morsel is claimed.
struct Shared<S> {
    bound: BoundProgram,
    sides: Vec<(BuildSide, FkSource)>,
    sink: S,
}

/// Thread-local state of the driver: the sink's accumulator, the stage's
/// register file (allocated once in the morsel `init`) and the counters.
struct Worker<A> {
    acc: A,
    regs: Regs,
    /// Access-pattern counters (only touched at `MetricsLevel::Counters`+).
    ctr: AccessCounters,
    /// Per edge, the rows that reached and survived it — the counters of
    /// the `multijoin-probe(<parent>)` ops. Empty unless counting.
    edge: Vec<(u64, u64)>,
}

/// Execute an aggregation: the stage's [`crate::physical::Instance`] over the group-table
/// representation (`group_table`, already resolved against the pinned
/// tables' generations), through the driver compiled for them. The
/// surviving row *set* per tile is order-independent (each edge is a pure
/// membership filter), so results are bit-identical across probe orders
/// and thread counts.
pub(crate) fn exec_agg(
    stage: AggStage<'_>,
    group_table: GroupTableRepr,
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    let shape = stage.shape;
    let (lanes, member) = (shape.instance.lanes, shape.instance.member);
    let counting = opts.level.counting();
    let sink = match &shape.instance.sink {
        Sinks::Scalar(sinks) => {
            let sinks = ScalarSinks {
                sinks: Arc::clone(sinks),
                proof: opts.overflow,
                counted: counting,
            };
            return drive(stage, ScalarSink { sinks, member }, opts, ctx);
        }
        Sinks::Grouped(sink) => Arc::clone(sink),
    };
    let n_aggs = shape.aggs.len();
    match group_table {
        GroupTableRepr::Hash => {
            let parent_rows = stage.edges.first().map(|e| e.parent_t.len());
            let capacity = AggTable::expected_group_keys(parent_rows);
            let sink = GroupedSink {
                new_table: move || AggTable::with_capacity(n_aggs, capacity),
                dense: false,
                sink,
                lanes,
                counting,
            };
            drive(stage, sink, opts, ctx)
        }
        GroupTableRepr::Dense { min, max, .. } => {
            let sink = GroupedSink {
                new_table: move || DenseAggTable::new(n_aggs, min, max),
                dense: true,
                sink,
                lanes,
                counting,
            };
            drive(stage, sink, opts, ctx)
        }
    }
}

/// The one strategy dispatch of the query: the driver compiled for the
/// instance's lanes.
fn drive<S: Sink>(
    stage: AggStage<'_>,
    sink: S,
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    match stage.shape.instance.lanes {
        Lanes::Selected => run::<SELECT, S>(stage, sink, opts, ctx),
        Lanes::Masked | Lanes::KeyMasked => run::<MASK, S>(stage, sink, opts, ctx),
        Lanes::Every => run::<EVERY_LANE, S>(stage, sink, opts, ctx),
    }
}

/// The driver. Builds one membership structure per direct edge (its chain
/// edges' bitmaps ANDed into its tile masks), runs the morsel body on workers
/// sharing them read-only, then reports the edges' probe cardinalities and
/// lets the sink merge.
fn run<const FRONT: u8, S: Sink>(
    stage: AggStage<'_>,
    sink: S,
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
) -> Result<(QueryResult, Vec<OpMetrics>), PlanError> {
    let counting = opts.level.counting();
    let mut op_list = Vec::new();
    let mut sides = Vec::with_capacity(stage.edges.len());
    for e in stage.edges {
        let side = build_edge_side(e, false, opts, ctx, &mut op_list)?;
        sides.push((side, e.fk.clone()));
    }
    let t0 = opts.level.timing().then(Instant::now);
    let shape = stage.shape;
    let shared = Arc::new(Shared {
        bound: shape.program.bind(stage.table)?,
        sides,
        sink,
    });
    let init = {
        let (ctx, shared) = (Arc::clone(ctx), Arc::clone(&shared));
        move || {
            let (program, n_edges) = (shared.bound.program(), shared.sides.len());
            Worker {
                acc: shared.sink.worker(&ctx.gauge, program, n_edges),
                regs: Regs::new(program),
                ctr: AccessCounters::default(),
                edge: vec![(0, 0); if counting { n_edges } else { 0 }],
            }
        }
    };
    let body = {
        let (ctx, shared) = (Arc::clone(ctx), Arc::clone(&shared));
        let has_filter = shape.program.has_filter();
        move |w: &mut Worker<S::Acc>, m_start: usize, m_len: usize| {
            let Shared { bound, sides, sink } = &*shared;
            if counting {
                w.ctr.morsels += 1;
                w.ctr.rows_in += m_len as u64;
                if has_filter {
                    w.ctr.predicate_evals += m_len as u64;
                }
            }
            for at in tiles_in(m_start, m_len) {
                let (start, len) = at;
                let t = Tile { bound, sides, at };
                bound.run(&mut w.regs, start, len);
                // Lanes that reached the sink or the first probe, those that
                // qualified, and the membership probes in between.
                let (reached, q, probes) = if FRONT == SELECT {
                    let filtered = bound.select(&mut w.regs, len);
                    let (mut k, mut probes) = (filtered, 0);
                    for (ei, (side, fk)) in sides.iter().enumerate() {
                        if k == 0 {
                            // Later edges see zero rows; skipping their zero
                            // counter increments leaves identical totals.
                            break;
                        }
                        let reaching = k as u64;
                        let fk = &fk.slice()[start..start + len];
                        k = side.narrow(&mut w.regs.idx, k, fk);
                        if counting {
                            w.edge[ei].0 += reaching;
                            w.edge[ei].1 += k as u64;
                            probes += reaching;
                        }
                    }
                    sink.selected(t, &mut w.acc, &w.regs, k);
                    (filtered, k, probes)
                } else if FRONT == MASK {
                    let m = sink.masked(t, &mut w.acc, &mut w.regs);
                    if counting && !sides.is_empty() {
                        // The edge's cardinalities are the qualifying rows,
                        // though every lane probes the membership; without
                        // a filter every lane qualifies.
                        let reached = match has_filter {
                            true => predicate::mask_count(bound.filter(&w.regs, len)),
                            false => len,
                        };
                        w.edge[0].0 += reached as u64;
                        w.edge[0].1 += m as u64;
                    }
                    (len, m, (len * sides.len()) as u64)
                } else {
                    sink.every_lane(t, &mut w.acc, &w.regs);
                    let mut q = 0;
                    if counting {
                        // Eager aggregation settles with the edge after the
                        // merge; its cardinalities are what probing each
                        // lane here would have seen.
                        for j in start..start + len {
                            let mut alive = 1;
                            for (e, (side, fk)) in w.edge.iter_mut().zip(sides) {
                                e.0 += alive;
                                alive &= side.hit(fk.slice()[j] as usize) as u64;
                                e.1 += alive;
                            }
                            q += alive as usize;
                        }
                    }
                    (len, q, 0)
                };
                if counting {
                    sink.count(&mut w.ctr, reached, q, probes);
                }
            }
            sink.end_morsel(&mut w.acc, &ctx.gauge, bound.program());
        }
    };
    let n = stage.table.len();
    let partials = opts
        .executor
        .run_morsels(ctx, n, opts.morsel_rows, init, body)?;
    // The edges' probe ops, then the aggregation's, after the builds'. The
    // probes run inside the aggregation's loop, so its op alone carries
    // the loop's wall.
    let first_op = op_list.len();
    if counting {
        for (ei, e) in stage.edges.iter().enumerate() {
            let mut op = OpMetrics::named(JoinEdge::probe_op(&e.edge.parent));
            for p in &partials {
                op.access.rows_in += p.edge[ei].0;
                op.access.rows_out += p.edge[ei].1;
            }
            op.ht.probes = op.access.rows_in;
            op.fused = true;
            op_list.push(op);
        }
        let mut agg = OpMetrics::named(shape.op_name());
        for p in &partials {
            agg.access.merge(&p.ctr);
        }
        op_list.push(agg);
    }
    let agg_op = op_list[first_op..].last_mut();
    let accs = partials.into_iter().map(|w| w.acc);
    let res = shared.sink.finish(&stage, &shared.sides, accs, agg_op)?;
    if let (Some(agg), Some(t0)) = (op_list[first_op..].last_mut(), t0) {
        agg.wall_nanos = t0.elapsed().as_nanos() as u64;
    }
    Ok((res, op_list))
}
