//! The two sinks of the aggregation driver: the scalar accumulator and the
//! per-worker group table. A sink is chosen once per query and the driver
//! is compiled for it, so the tile loop dispatches on nothing.

use std::sync::Arc;

use super::build::BuildSide;
use super::pipeline::{AggStage, Sides, Tile};
use crate::error::PlanError;
use crate::expr::AggFunc;
use crate::logical::AggSpec;
use crate::metrics::OpMetrics;
use crate::physical::{self, Membership};
use crate::result::QueryResult;
use crate::tile::{self, GroupSink, Lane, Regs, ScalarSinks, TileProgram};
use swole_ht::{GroupTable, MergeOp};
use swole_kernels::groupby::Lanes;
use swole_kernels::{predicate, AccessCounters};
use swole_runtime::{charge_or_panic, MemGauge};

/// Where the driver's front end delivers a tile's rows: one method per
/// front end folds them into the worker's accumulator, the rest is what else
/// differs between the sinks — the charge, the counters' meaning, the merge.
pub(super) trait Sink: Send + Sync + 'static {
    /// One worker's accumulator.
    type Acc: Send + 'static;

    /// A fresh accumulator, charged to `gauge` — together with the scratch
    /// of the worker that holds it — before either is touched.
    fn worker(&self, gauge: &MemGauge, program: &TileProgram, n_edges: usize) -> Self::Acc;

    /// [`physical::Lanes::Selected`]: fold the rows the first `k` tile-local
    /// offsets of `regs.idx` select, already narrowed through every edge.
    fn selected(&self, t: Tile<'_>, acc: &mut Self::Acc, regs: &Regs, k: usize);

    /// [`physical::Lanes::Masked`] and [`physical::Lanes::KeyMasked`]: fold
    /// every lane under the tile's filter mask — and under a masked probe's
    /// one edge, which the scalar sink hands its kernel as membership.
    /// Returns the qualifying lanes (which the sinks count only if asked or
    /// their kernels need them).
    fn masked(&self, t: Tile<'_>, acc: &mut Self::Acc, regs: &mut Regs) -> usize;

    /// [`physical::Lanes::Every`]: fold every lane of a tile the edges have
    /// not restricted; the sink settles with them after the merge (eager
    /// aggregation, the one sink behind this front end).
    fn every_lane(&self, _t: Tile<'_>, _acc: &mut Self::Acc, _regs: &Regs) {
        unreachable!("only eager aggregation folds every lane")
    }

    /// Account one tile: `reached` lanes got past the filter (selection
    /// vector) or were aggregated (the other front ends), `qualifying` of
    /// them belong to the result, and the edges were probed `probes` times.
    fn count(&self, ctr: &mut AccessCounters, reached: usize, qualifying: usize, probes: u64);

    /// End-of-morsel hook: settle with `gauge` whatever grew inside the
    /// (infallible) tile loop.
    fn end_morsel(&self, _acc: &mut Self::Acc, _gauge: &MemGauge, _program: &TileProgram) {}

    /// Merge the workers' accumulators into the result, reporting what only
    /// the sink knows on the aggregation's operator.
    fn finish(
        &self,
        stage: &AggStage<'_>,
        sides: &Sides,
        partials: impl Iterator<Item = Self::Acc>,
        agg_op: Option<&mut OpMetrics>,
    ) -> Result<QueryResult, PlanError>;
}

impl Tile<'_> {
    /// The tile's slice of the FK the first edge is probed through.
    fn first_fk(&self) -> Option<&[u32]> {
        let (_, fk) = self.sides.first()?;
        Some(&fk.slice()[self.at.0..self.at.0 + self.at.1])
    }
}

fn no_partials() -> PlanError {
    PlanError::ExecutionFailed("no worker partials to merge".into())
}

// ---------------------------------------------------------------------------
// Scalar
// ---------------------------------------------------------------------------

/// The scalar sink: one accumulator slot per aggregate, fed by the
/// `swole_kernels::agg::fold` instances selected for the aggregate list,
/// under the stage's membership.
pub(super) struct ScalarSink {
    pub sinks: ScalarSinks,
    pub member: Membership,
}

pub(super) struct ScalarAcc {
    acc: Vec<i64>,
    matched: usize,
}

/// Bytes of one scalar-pipeline worker's scratch: the program's register
/// file plus an in/out survivor counter per edge. Read by the executor's
/// charge and by the verifier lowering alike.
pub(crate) fn scalar_scratch_bytes(program: &TileProgram, n_edges: usize) -> usize {
    program.scratch_bytes() + n_edges * 16
}

impl Sink for ScalarSink {
    type Acc = ScalarAcc;

    fn worker(&self, gauge: &MemGauge, program: &TileProgram, n_edges: usize) -> ScalarAcc {
        charge_or_panic(gauge, scalar_scratch_bytes(program, n_edges));
        // Accumulator identities: `i64::MAX` / `i64::MIN` for min / max.
        let identity = |s: &tile::Sink| match s {
            tile::Sink::Min(_) => i64::MAX,
            tile::Sink::Max(_) => i64::MIN,
            _ => 0,
        };
        ScalarAcc {
            acc: self.sinks.sinks.iter().map(identity).collect(),
            matched: 0,
        }
    }

    fn selected(&self, t: Tile<'_>, acc: &mut ScalarAcc, regs: &Regs, k: usize) {
        // Survivors are fully narrowed before accumulation, so min/max see
        // only real qualifying rows.
        let lanes = (Lanes::Selected(&regs.idx[..k]), None);
        let ScalarAcc { acc, matched } = acc;
        *matched += t.bound.accumulate(regs, &self.sinks, lanes, t.at, acc);
    }

    fn masked(&self, t: Tile<'_>, acc: &mut ScalarAcc, regs: &mut Regs) -> usize {
        let member = match (self.member, t.sides, t.first_fk()) {
            (Membership::None, ..) => None,
            (Membership::Bitmap, [(BuildSide::Bitmap(bm), _)], Some(fk)) => Some((fk, bm)),
            _ => unreachable!("a masked probe is planned over one bitmap edge"),
        };
        let lanes = (Lanes::Masked(t.bound.filter(regs, t.at.1)), member);
        let ScalarAcc { acc, matched } = acc;
        let m = t.bound.accumulate(regs, &self.sinks, lanes, t.at, acc);
        *matched += m;
        m
    }

    fn count(&self, ctr: &mut AccessCounters, reached: usize, qualifying: usize, probes: u64) {
        ctr.rows_out += qualifying as u64;
        // Lanes aggregated (masked) or probed (selection vector) for
        // nothing: the pullup's wasted work (§ III-A).
        ctr.wasted_lanes += (reached - qualifying) as u64;
        ctr.ht_probes += probes;
    }

    /// Fold the per-worker partials into one accumulator, each sum one
    /// wrapping add. Zero matches anywhere leaves min/max at their
    /// identities, which flatten to the documented all-zero row.
    fn finish(
        &self,
        stage: &AggStage<'_>,
        _sides: &Sides,
        mut partials: impl Iterator<Item = ScalarAcc>,
        _agg_op: Option<&mut OpMetrics>,
    ) -> Result<QueryResult, PlanError> {
        let aggs = &stage.shape.aggs;
        let ScalarAcc {
            mut acc,
            mut matched,
        } = partials.next().ok_or_else(no_partials)?;
        for p in partials {
            matched += p.matched;
            for (i, a) in aggs.iter().enumerate() {
                match a.func {
                    AggFunc::Sum | AggFunc::Count => acc[i] = acc[i].wrapping_add(p.acc[i]),
                    AggFunc::Min => acc[i] = acc[i].min(p.acc[i]),
                    AggFunc::Max => acc[i] = acc[i].max(p.acc[i]),
                }
            }
        }
        if matched == 0 {
            acc.iter_mut().for_each(|v| *v = 0);
        }
        let columns = aggs.iter().map(|a| a.name.clone()).collect();
        Ok(QueryResult::new(columns, vec![acc]))
    }
}

// ---------------------------------------------------------------------------
// Grouped
// ---------------------------------------------------------------------------

/// The grouped sink: each worker upserts into a private group table `T`
/// (the driver is compiled once per representation) through the
/// `swole_kernels::groupby::upsert` instance its [`GroupSink`] names, over
/// the stage's lanes: the selected ones — the hybrid group-by and, narrowed
/// through an edge, the groupjoin; every lane under the mask (value
/// masking) or by its masked key (key masking); or every lane by its FK
/// (eager aggregation), which deletes the keys whose parent does not
/// qualify after the merge.
pub(super) struct GroupedSink<F> {
    pub new_table: F,
    /// Whether `new_table` makes dense tables (for the metrics).
    pub dense: bool,
    pub sink: Arc<GroupSink>,
    pub lanes: physical::Lanes,
    pub counting: bool,
}

pub(super) struct GroupAcc<T> {
    ht: T,
    /// Bytes already charged to the gauge for this worker (scratch + table).
    charged: usize,
}

impl Tile<'_> {
    /// The group key at native width: the key column, or — a grouped join's
    /// program lowers none — the raw FK slice its first edge is probed
    /// through.
    fn group_keys(&self) -> Lane<'_> {
        match self.first_fk() {
            Some(fk) => Lane::U32(fk),
            None => self.bound.key_lane(self.at.0, self.at.1),
        }
    }
}

impl<T, F> Sink for GroupedSink<F>
where
    T: GroupTable + Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    type Acc = GroupAcc<T>;

    fn worker(&self, gauge: &MemGauge, program: &TileProgram, _n_edges: usize) -> GroupAcc<T> {
        let ht = (self.new_table)();
        let charged = program.scratch_bytes() + ht.size_bytes();
        charge_or_panic(gauge, charged);
        GroupAcc { ht, charged }
    }

    fn selected(&self, t: Tile<'_>, acc: &mut GroupAcc<T>, regs: &Regs, k: usize) {
        let lanes = Lanes::Selected(&regs.idx[..k]);
        t.bound
            .upsert(regs, &self.sink, t.group_keys(), lanes, t.at, &mut acc.ht);
    }

    fn masked(&self, t: Tile<'_>, acc: &mut GroupAcc<T>, regs: &mut Regs) -> usize {
        let (bound, len) = (t.bound, t.at.1);
        // The one counter the masked kernels do not already produce (the
        // budgeted extra mask_count per tile).
        let m = match self.counting {
            true => predicate::mask_count(bound.filter(regs, len)),
            false => 0,
        };
        // Key masking sends filtered-out lanes to the throwaway entry and
        // adds unmasked values; value masking keeps the key and multiplies
        // by the mask.
        let (keys, lanes) = match self.lanes == physical::Lanes::KeyMasked {
            true => {
                bound.mask_keys(regs, t.group_keys());
                (Lane::I64(&regs.tmp[..len]), Lanes::Every)
            }
            false => (t.group_keys(), Lanes::Masked(bound.filter(regs, len))),
        };
        bound.upsert(regs, &self.sink, keys, lanes, t.at, &mut acc.ht);
        m
    }

    fn every_lane(&self, t: Tile<'_>, acc: &mut GroupAcc<T>, regs: &Regs) {
        let keys = Lane::U32(t.first_fk().expect("eager aggregation keys by its FK"));
        t.bound
            .upsert(regs, &self.sink, keys, Lanes::Every, t.at, &mut acc.ht);
    }

    fn count(&self, ctr: &mut AccessCounters, reached: usize, qualifying: usize, _probes: u64) {
        // This sink's probes are its table upserts: the selected rows, or
        // every lane — of which those the mask cancels, or whose group eager
        // aggregation then deletes (§ III-E), are wasted.
        let upserts = match self.lanes {
            physical::Lanes::Selected => qualifying,
            _ => reached,
        };
        ctr.rows_out += qualifying as u64;
        ctr.wasted_lanes += (upserts - qualifying) as u64;
        ctr.ht_probes += upserts as u64;
    }

    /// Charge hash-table growth since the last morsel boundary. `AggTable`
    /// grows inside the (infallible) tile loop, so the charge is settled at
    /// morsel granularity; a failed charge panics with the typed error and
    /// is caught by the worker's isolation domain. (The dense table never
    /// grows.)
    fn end_morsel(&self, acc: &mut GroupAcc<T>, gauge: &MemGauge, program: &TileProgram) {
        let now_bytes = program.scratch_bytes() + acc.ht.size_bytes();
        if now_bytes > acc.charged {
            charge_or_panic(gauge, now_bytes - acc.charged);
            acc.charged = now_bytes;
        }
    }

    fn finish(
        &self,
        stage: &AggStage<'_>,
        sides: &Sides,
        mut partials: impl Iterator<Item = GroupAcc<T>>,
        mut agg_op: Option<&mut OpMetrics>,
    ) -> Result<QueryResult, PlanError> {
        // Snapshot each worker's table counters BEFORE it takes part in the
        // merge: merge_from probes through self.entry(), which would
        // contaminate the merged table's counters with merge traffic that
        // never touched base data.
        let mut snapshot = |ht: &T| {
            if let Some(op) = agg_op.as_deref_mut() {
                op.ht.merge(&ht.counters());
            }
        };
        let aggs = &stage.shape.aggs;
        let ops = merge_ops(aggs);
        let mut ht = partials.next().ok_or_else(no_partials)?.ht;
        snapshot(&ht);
        for p in partials {
            snapshot(&p.ht);
            ht.merge_from(&p.ht, &ops);
        }
        if let (physical::Lanes::Every, Some((side, _)), Some(edge)) =
            (self.lanes, sides.first(), stage.edges.first())
        {
            // Inverted predicate deletes non-qualifying keys (§ III-E) — after
            // the merge, so the reconciliation happens exactly once.
            for pos in 0..edge.parent_t.len() {
                if side.hit(pos) == 0 {
                    ht.delete(pos as i64);
                }
            }
        }
        if let Some(op) = agg_op {
            op.ht_dense = self.dense;
            // Per-worker insert counts depend on the morsel partition (several
            // workers insert the same key); the merged table's final key count
            // — after any deletion — is the deterministic figure the analyze
            // output reports.
            op.ht.inserts = ht.len() as u64;
        }
        let key = stage
            .shape
            .group
            .as_deref()
            .expect("a grouped sink has a key");
        let key_dict = stage
            .table
            .column(key)
            .and_then(|c| c.as_dict())
            .map(|d| d.shared_dictionary());
        Ok(rows_from_table(key, aggs, &ht, key_dict))
    }
}

/// Per-worker merge operators for an aggregate list (all of which are
/// commutative and associative, making the merge order — and therefore the
/// thread count *and* the pool's morsel interleaving — invisible in the
/// result).
fn merge_ops(aggs: &[AggSpec]) -> Vec<MergeOp> {
    aggs.iter()
        .map(|a| match a.func {
            AggFunc::Sum | AggFunc::Count => MergeOp::Add,
            AggFunc::Min => MergeOp::Min,
            AggFunc::Max => MergeOp::Max,
        })
        .collect()
}

fn rows_from_table(
    key_name: &str,
    aggs: &[AggSpec],
    ht: &impl GroupTable,
    key_dict: Option<Arc<Vec<String>>>,
) -> QueryResult {
    // Sized once for every stored key (valid or not): a filtered iterator
    // has no lower size hint, and a large result would otherwise be copied
    // through a run of doubling reallocations.
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(ht.len());
    rows.extend(
        ht.iter()
            .filter(|&(_, _, valid)| valid)
            .map(|(key, state, _)| {
                let mut row = Vec::with_capacity(1 + aggs.len());
                row.push(key);
                row.extend_from_slice(state);
                row
            }),
    );
    rows.sort_unstable();
    let mut columns = vec![key_name.to_string()];
    columns.extend(aggs.iter().map(|a| a.name.clone()));
    QueryResult {
        columns,
        rows,
        metrics: None,
        key_dict,
    }
}
