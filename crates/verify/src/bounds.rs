//! Pass 5 (certification): abstract interpretation over the verification IR.
//!
//! Where passes 1–4 check that a lowered [`Program`] is *well-formed* (columns
//! exist, artifacts are domain-sized, allocation sites charge the gauge), this
//! pass computes *how much* the plan can charge: a sound per-operator upper
//! bound on rows, bytes, and hash-table growth, folded into a
//! [`PlanCertificate`] the engine can compare against a memory budget before
//! the query is admitted.
//!
//! Two abstract domains drive the analysis:
//!
//! - A **cardinality domain** over operator outputs: scalar aggregates
//!   produce one row, grouped aggregates at most `min(rows, ndv(key))` groups
//!   (exact NDV from a fresh statistics snapshot when available, the scanned
//!   row count otherwise), semijoin/multijoin probes one row, window scans at
//!   most their input rows. Every materialized artifact and hash-table
//!   capacity is a monotone function of these cardinalities and the table
//!   domains declared in the IR, so the bytes bound is a closed-form
//!   evaluation — no fixpoint is needed (the IR is a DAG in execution order).
//! - An **interval domain** over expression values: each [`VExpr`] node is
//!   evaluated to a `[lo, hi]` interval (column statistics when fresh, the
//!   column type's domain otherwise), with the *widening rule* that any
//!   arithmetic result escaping the `i64` range is widened to ⊤ (the full
//!   `i64` range). Every sum is one wrapping `i64` add, right whether or not
//!   it wraps, so the analysis proves only what picks a narrower loop: the
//!   [`OverflowProof`] says when an aggregate input, its operands and its
//!   `i32` tile partial fit an `i32` (`tile · m ≤ i32::MAX`).
//!
//! Soundness argument: every byte bound here mirrors a charge site in the
//! engine (`crates/plan/src/exec`) with the operator's row count, partial
//! count, and hash-table growth discipline substituted by their maxima. The
//! structure sizes are the sizing functions the structures' own constructors
//! call (`AggTable::grown_bytes`, `DenseAggTable::bytes_for`,
//! `KeySet::build_bytes_bound`, `PositionalBitmap::bytes_for`; a byte map
//! is one byte per row), so there is
//! no second copy to drift. An attempt's charges are held until it returns,
//! so the sum of per-operator bounds dominates the primary attempt's gauge
//! peak; a failed attempt's are dropped before the data-centric retry
//! charges its reserve, so the query's peak is the larger of the two — the
//! figure admission reserves and the gauge is limited to.

use std::fmt::{self, Write};

use swole_bitmap::PositionalBitmap;
use swole_cost::SemiJoinStrategy;
use swole_ht::{AggTable, DenseAggTable, KeySet};

use crate::ir::{
    ArithOp, ArtifactKind, BoundExpr, ColType, ExprRole, Op, Program, StrategyRef, TableDecl, VExpr,
};

// ---------------------------------------------------------------------------
// Inputs: statistics profiles
// ---------------------------------------------------------------------------

/// Value-range and distinct-count facts about one column, taken from a
/// *fresh* statistics snapshot. `min`/`max` are exact by the statistics
/// contract; `ndv` is present only when the distinct count is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Exact minimum value (dictionary columns: minimum code).
    pub min: i64,
    /// Exact maximum value (dictionary columns: maximum code).
    pub max: i64,
    /// Exact number of distinct values, when known exactly.
    pub ndv: Option<u64>,
}

/// Fresh per-table statistics handed to the bounds pass. The caller is
/// responsible for freshness: a profile must describe the same table
/// generation the certificate will be cached under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProfile {
    /// Table name.
    pub table: String,
    /// Generation of the table contents the profile describes.
    pub generation: u64,
    /// Per-column facts.
    pub columns: Vec<ColumnProfile>,
}

impl TableProfile {
    fn column(&self, name: &str) -> Option<&ColumnProfile> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// Everything the bounds pass needs beyond the [`Program`] itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundsCtx {
    /// Most accumulators a stage of many morsels can hold at once: 1
    /// inline; on a worker pool, its workers plus the submitting thread,
    /// which works it too.
    pub workers: usize,
    /// Rows per morsel (rounded up to whole tiles, as the executor does).
    /// A stage of one morsel runs inline and holds one accumulator; one of
    /// `m` morsels at most `min(m, workers)`.
    pub morsel_rows: usize,
    /// Fresh statistics profiles for the program's tables. Tables without a
    /// profile fall back to their declared domains (type ranges, row counts).
    pub profiles: Vec<TableProfile>,
    /// Bytes the data-centric retry holds at its peak (0: nothing retries
    /// the plan). The engine drops the failed primary attempt's charges
    /// before the retry charges this, so the peak bound is the larger of
    /// the two, not their sum.
    pub fallback_bytes: u64,
}

impl BoundsCtx {
    /// A context with no statistics: every bound falls back to table
    /// domains and type ranges. Morsels are one tile, so every stage of
    /// more than one tile may hold all `workers` accumulators.
    #[must_use]
    pub fn without_stats(workers: usize) -> BoundsCtx {
        BoundsCtx {
            workers,
            morsel_rows: 1,
            profiles: Vec::new(),
            fallback_bytes: 0,
        }
    }

    fn profile(&self, table: &str) -> Option<&TableProfile> {
        self.profiles.iter().find(|p| p.table == table)
    }

    /// The most accumulators a stage over `rows` rows holds at once, for
    /// tiles of `tile` rows: what `Executor::max_partials` says of its
    /// morsel count.
    fn partials(&self, rows: u64, tile: usize) -> u64 {
        let step = self.morsel_rows.div_ceil(tile).max(1) * tile;
        rows.div_ceil(step as u64)
            .clamp(1, self.workers.max(1) as u64)
    }

    /// The grouped-key cardinality bound over `rows` rows of `table`: at
    /// most the row count (every row its own group), and when a fresh
    /// profile knows `key`, at most its exact distinct count and the width
    /// of its exact `[min, max]` range.
    #[must_use]
    pub fn key_bound(&self, table: &str, key: Option<&str>, rows: u64) -> u64 {
        let Some(c) = key.and_then(|k| self.profile(table)?.column(k)) else {
            return rows;
        };
        let width = u64::try_from(i128::from(c.max) - i128::from(c.min) + 1).unwrap_or(u64::MAX);
        rows.min(width).min(c.ndv.unwrap_or(u64::MAX))
    }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Per-operator slice of the certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBounds {
    /// Operator name.
    pub op: String,
    /// Plan-path provenance.
    pub path: String,
    /// Rows the operator scans.
    pub rows_scanned: u64,
    /// Upper bound on the operator's output cardinality.
    pub out_rows_bound: u64,
    /// Bytes charged once per plan (masks, bitmaps, selection vectors,
    /// materialized window columns, sort permutations).
    pub plan_bytes_bound: u64,
    /// Bytes charged per accumulator (tile scratch), already multiplied by
    /// the most accumulators the operator's stage holds.
    pub worker_bytes_bound: u64,
    /// Hash-table bytes including the growth discipline's worst case
    /// (initial capacity doubled until the key bound fits), across the
    /// stage's accumulators.
    pub ht_bytes_bound: u64,
    /// What the analysis proves about the operator's sums.
    pub overflow_proof: OverflowProof,
    /// The largest magnitude an aggregate input can take (`None`: no input).
    pub max_input: Option<u64>,
}

/// What the value-range analysis proves about a plan's sums, weakest
/// first — the accumulate loops the executor may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverflowProof {
    /// Nothing narrower: the sums are wrapping `i64` adds.
    I64,
    /// Every aggregate input fits an `i32` tile: the input and each
    /// of its operands and intermediate values fit `i32`, and
    /// `tile · max|input| ≤ i32::MAX`, so a tile's sum of it does too.
    I32Tile,
}

impl OpBounds {
    /// Total bytes this operator can charge.
    #[must_use]
    pub fn bytes_bound(&self) -> u64 {
        self.plan_bytes_bound
            .saturating_add(self.worker_bytes_bound)
            .saturating_add(self.ht_bytes_bound)
    }
}

impl fmt::Display for OpBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: rows<={}, out<={}, bytes<={} (plan {} + worker {} + ht {})",
            self.path,
            self.rows_scanned,
            self.out_rows_bound,
            self.bytes_bound(),
            self.plan_bytes_bound,
            self.worker_bytes_bound,
            self.ht_bytes_bound,
        )?;
        match (self.overflow_proof, self.max_input) {
            (OverflowProof::I32Tile, Some(m)) => write!(f, ", i32 tile (|input| <= {m})"),
            _ => Ok(()),
        }
    }
}

/// The typed certificate attached to every verified plan: a sound upper
/// bound on what execution can charge the memory gauge, plus the `i32`
/// tile verdict of the value-range analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCertificate {
    /// Peak bytes the query can charge: the larger of the primary attempt's
    /// bound and the data-centric retry's reserve (a failed primary's
    /// charges are dropped before the retry). Admission reserves it, and
    /// the query's gauge is limited to it.
    pub peak_bytes_bound: u64,
    /// Peak bytes of the primary (composed-kernel) attempt alone.
    pub primary_bytes_bound: u64,
    /// The data-centric retry's reserve (0: nothing retries the plan).
    pub fallback_bytes: u64,
    /// Per-operator breakdown, in execution order.
    pub per_op_bounds: Vec<OpBounds>,
    /// The weakest of the operators' proofs: what the whole plan may run.
    pub overflow_proof: OverflowProof,
    /// Most accumulators a stage of many morsels holds, as the bounds were
    /// computed for (a stage of fewer morsels is counted with fewer).
    pub workers: u64,
    /// `(table, generation)` pairs of the statistics snapshots consulted —
    /// the certificate is valid only while every listed generation is
    /// current (the plan cache enforces this with the same generation check
    /// that invalidates cached plans).
    pub stats_generations: Vec<(String, u64)>,
    /// Human-readable summary lines for `EXPLAIN VERIFY`.
    pub lines: Vec<String>,
}

impl PlanCertificate {
    /// `true` when every bound is finite (no saturation to `u64::MAX`).
    /// The corpus CI gate requires this for every supported plan.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.peak_bytes_bound < u64::MAX
    }
}

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

/// A closed interval over `i64` values, carried in `i128` so single-step
/// arithmetic on in-range endpoints can never wrap. Invariant: after every
/// operation the interval is widened back into the `i64` range (⊤), so
/// nested expressions stay single-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Iv {
    lo: i128,
    hi: i128,
}

const I64_LO: i128 = i64::MIN as i128;
const I64_HI: i128 = i64::MAX as i128;
const TOP: Iv = Iv {
    lo: I64_LO,
    hi: I64_HI,
};
const BOOL: Iv = Iv { lo: 0, hi: 1 };

impl Iv {
    fn point(v: i64) -> Iv {
        Iv {
            lo: v as i128,
            hi: v as i128,
        }
    }

    fn range(lo: i64, hi: i64) -> Iv {
        Iv {
            lo: lo.min(hi) as i128,
            hi: lo.max(hi) as i128,
        }
    }

    fn hull(self, other: Iv) -> Iv {
        Iv {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn fits_i64(self) -> bool {
        self.lo >= I64_LO && self.hi <= I64_HI
    }

    /// Widening: clamp an out-of-range result to ⊤.
    fn widen(self) -> Iv {
        if self.fits_i64() {
            self
        } else {
            TOP
        }
    }

    fn max_abs(self) -> i128 {
        self.lo.abs().max(self.hi.abs())
    }
}

/// One arithmetic step over exact `i128` endpoints. Endpoints are within the
/// `i64` range by the widening invariant, so none of these can wrap `i128`.
fn arith(op: ArithOp, a: Iv, b: Iv) -> Iv {
    match op {
        ArithOp::Add => Iv {
            lo: a.lo + b.lo,
            hi: a.hi + b.hi,
        }
        .widen(),
        ArithOp::Sub => Iv {
            lo: a.lo - b.hi,
            hi: a.hi - b.lo,
        }
        .widen(),
        ArithOp::Mul => {
            let corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
            Iv {
                lo: *corners.iter().min().expect("non-empty"),
                hi: *corners.iter().max().expect("non-empty"),
            }
            .widen()
        }
        ArithOp::Div => {
            // A divisor interval containing zero means a runtime
            // divide-by-zero is possible: nothing is proven, result ⊤.
            if b.lo <= 0 && b.hi >= 0 {
                return TOP;
            }
            // i64::MIN / -1 is the one non-zero-divisor overflow.
            if a.lo == I64_LO && b.lo <= -1 && b.hi >= -1 {
                return TOP;
            }
            let corners = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
            Iv {
                lo: *corners.iter().min().expect("non-empty"),
                hi: *corners.iter().max().expect("non-empty"),
            }
            .widen()
        }
    }
}

/// Evaluate `expr` to an interval, raising `widest` to the largest
/// magnitude any of its value nodes takes.
fn eval_expr(
    expr: &VExpr,
    decl: Option<&TableDecl>,
    profile: Option<&TableProfile>,
    widest: &mut i128,
) -> Iv {
    let iv = match expr {
        VExpr::Lit(v) => Iv::point(*v),
        VExpr::Param(_) => TOP,
        VExpr::Col(name) => column_interval(name, decl, profile),
        // Predicate-shaped nodes evaluate to 0/1 regardless of operands;
        // their operand sub-trees are still walked for their magnitudes.
        VExpr::DictPredicate(_) => BOOL,
        VExpr::Cmp(children) | VExpr::Bool(children) => {
            for c in children {
                eval_expr(c, decl, profile, widest);
            }
            BOOL
        }
        VExpr::Case(children) => {
            // Lowered CASE is [when, then, otherwise]: the value is the hull
            // of the branch values; the condition contributes only its
            // magnitudes.
            if let [when, then, otherwise] = children.as_slice() {
                eval_expr(when, decl, profile, widest);
                let t = eval_expr(then, decl, profile, widest);
                let o = eval_expr(otherwise, decl, profile, widest);
                t.hull(o)
            } else {
                for c in children {
                    eval_expr(c, decl, profile, widest);
                }
                TOP
            }
        }
        VExpr::Arith(op, children) => {
            let mut it = children.iter();
            let Some(first) = it.next() else {
                return Iv::point(0);
            };
            let mut acc = eval_expr(first, decl, profile, widest);
            for c in it {
                let rhs = eval_expr(c, decl, profile, widest);
                acc = arith(*op, acc, rhs);
                *widest = (*widest).max(acc.max_abs());
            }
            acc
        }
    };
    *widest = (*widest).max(iv.max_abs());
    iv
}

fn column_interval(name: &str, decl: Option<&TableDecl>, profile: Option<&TableProfile>) -> Iv {
    if let Some(c) = profile.and_then(|p| p.column(name)) {
        return Iv::range(c.min, c.max);
    }
    match decl.and_then(|d| d.col_type(name)) {
        Some(ColType::Int(bits)) if (1..64).contains(&bits) => Iv {
            lo: -(1i128 << (bits - 1)),
            hi: (1i128 << (bits - 1)) - 1,
        },
        Some(ColType::U32) => Iv {
            lo: 0,
            hi: u32::MAX as i128,
        },
        _ => TOP,
    }
}

/// Bytes of one worker's group table: the dense array's fixed size when the
/// operator declares one, otherwise the hash table that may come to hold
/// `keys`, having started out sized as the executor sizes it
/// (`fk_parent_rows` as in [`AggTable::expected_group_keys`]).
fn group_table_bytes(op: &Op, fk_parent_rows: Option<u64>, keys: u64, n_aggs: u64) -> u64 {
    let bytes = match op.dense_group_slots {
        Some(slots) => DenseAggTable::bytes_for(slots, n_aggs as usize),
        None => AggTable::grown_bytes(
            fk_parent_rows.map(|r| r as usize),
            keys as usize,
            n_aggs as usize,
        ),
    };
    bytes as u64
}

// ---------------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------------

fn group_key_column(op: &Op) -> Option<&str> {
    op.exprs.iter().find_map(|b| match (&b.role, &b.expr) {
        (ExprRole::GroupKey, VExpr::Col(c)) => Some(c.as_str()),
        _ => None,
    })
}

fn n_aggs_of(op: &Op) -> u64 {
    match op.n_aggs {
        Some(n) => n as u64,
        // Hand-built programs without the annotation: every aggregate has
        // at least its input expression (COUNT(*) lowers to none, so the
        // engine always annotates).
        None => op
            .exprs
            .iter()
            .filter(|b| matches!(b.role, ExprRole::AggInput))
            .count()
            .max(1) as u64,
    }
}

/// Value-range analysis for one operator: model each aggregate input's
/// `i32` tile partial (a sum of at most `tile` addends). Returns the
/// operator's proof and its largest input magnitude.
fn analyze_overflow(
    op: &Op,
    decl: Option<&TableDecl>,
    profile: Option<&TableProfile>,
    tile: usize,
) -> (OverflowProof, Option<u64>) {
    let (mut i32_tiles, mut max_input) = (true, None);
    let inputs = op
        .exprs
        .iter()
        .filter(|b| matches!(b.role, ExprRole::AggInput));
    for BoundExpr { expr, .. } in inputs {
        // `widest` covers the input's operands and intermediates too.
        let mut widest = 0;
        let m = eval_expr(expr, decl, profile, &mut widest).max_abs();
        let i32_hi = i32::MAX as i128;
        i32_tiles &= widest <= i32_hi && m.saturating_mul(tile as i128) <= i32_hi;
        max_input = max_input.max(Some(u64::try_from(m).unwrap_or(u64::MAX)));
    }
    let proof = match i32_tiles {
        false => OverflowProof::I64,
        true => OverflowProof::I32Tile,
    };
    (proof, max_input)
}

/// Derive the certificate for a lowered program.
///
/// Infallible by construction: every bound saturates rather than failing,
/// and [`PlanCertificate::is_bounded`] reports whether saturation occurred
/// (the corpus gate requires it never does on the supported surface).
#[must_use]
pub fn certify(program: &Program, ctx: &BoundsCtx) -> PlanCertificate {
    let workers = ctx.workers.max(1) as u64;
    let mut per_op = Vec::with_capacity(program.ops.len());
    // Output cardinality of the most recent core operator, for sizing the
    // Sort post-operator's selection vector.
    let mut last_out: u64 = 0;
    for op in &program.ops {
        let decl = program.table(&op.table);
        let profile = ctx.profile(&op.table);
        let rows = op.rows as u64;
        let n_aggs = n_aggs_of(op);
        let partials = ctx.partials(rows, program.tile_rows);
        let (overflow_proof, max_input) = analyze_overflow(op, decl, profile, program.tile_rows);
        let mut b = OpBounds {
            op: op.name.clone(),
            path: op.path.clone(),
            rows_scanned: rows,
            out_rows_bound: rows,
            plan_bytes_bound: 0,
            // Every morsel stage charges one register file per accumulator;
            // the lowering carries its size from the tile program itself.
            worker_bytes_bound: partials.saturating_mul(op.scratch_bytes as u64),
            ht_bytes_bound: 0,
            overflow_proof,
            max_input,
        };
        match op.strategy.as_ref().map(|c| &c.priced) {
            Some(StrategyRef::Agg { grouped, .. }) => {
                if *grouped {
                    let keys = ctx.key_bound(&op.table, group_key_column(op), rows);
                    b.out_rows_bound = keys;
                    b.ht_bytes_bound =
                        partials.saturating_mul(group_table_bytes(op, None, keys, n_aggs));
                } else {
                    b.out_rows_bound = 1;
                }
                last_out = b.out_rows_bound;
            }
            // The membership structure the probe imports, written from the
            // build's tile loop: its masks and selection vectors are tile
            // scratch.
            Some(StrategyRef::SemiJoinBuild(SemiJoinStrategy::Hash)) => {
                b.ht_bytes_bound = KeySet::build_bytes_bound(op.rows) as u64;
            }
            Some(StrategyRef::SemiJoinBuild(SemiJoinStrategy::PositionalBitmap(_))) => {
                let bytes = op
                    .exports
                    .iter()
                    .any(|a| a.kind == ArtifactKind::PositionalBytes);
                b.plan_bytes_bound = match bytes {
                    true => op.rows,
                    false => PositionalBitmap::bytes_for(op.rows),
                } as u64;
            }
            Some(StrategyRef::SemiJoinProbe { .. }) => {
                b.out_rows_bound = 1;
                last_out = b.out_rows_bound;
            }
            Some(StrategyRef::GroupJoin(_)) => {
                let key = group_key_column(op);
                let parent_rows = key
                    .and_then(|k| {
                        program
                            .fks
                            .iter()
                            .find(|f| f.child == op.table && f.fk_col == k)
                    })
                    .map_or(rows, |f| f.parent_rows as u64);
                let keys = ctx.key_bound(&op.table, key, parent_rows);
                b.out_rows_bound = keys;
                b.ht_bytes_bound =
                    partials.saturating_mul(group_table_bytes(op, Some(parent_rows), keys, n_aggs));
                last_out = b.out_rows_bound;
            }
            Some(StrategyRef::Window { .. }) => {
                // Phase 1: plan-scoped selection vector (+ per-worker scan
                // scratch). Phase 2: materialized columns for qualifying rows.
                let mat_cols = op.mat_cols.unwrap_or(1 + op.exprs.len()) as u64;
                b.plan_bytes_bound = rows
                    .saturating_mul(4)
                    .saturating_add(rows.saturating_mul(8).saturating_mul(mat_cols));
                last_out = rows;
            }
            Some(StrategyRef::Sort) => {
                b.out_rows_bound = last_out;
                b.plan_bytes_bound = last_out.saturating_mul(4);
            }
            Some(StrategyRef::Limit) => {
                b.out_rows_bound = last_out;
            }
            None => {}
        }
        per_op.push(b);
    }
    let primary = per_op
        .iter()
        .fold(0u64, |acc, b| acc.saturating_add(b.bytes_bound()));
    let peak = primary.max(ctx.fallback_bytes);
    let overflow_proof = per_op.iter().map(|b| b.overflow_proof).min();
    let stats_generations: Vec<(String, u64)> = program
        .tables
        .iter()
        .filter_map(|t| ctx.profile(&t.name).map(|p| (t.name.clone(), p.generation)))
        .collect();
    let mut lines = vec![format!(
        "bounds: peak <= {peak} B across {} operator(s) at {workers} worker(s) \
             (the larger of primary {primary} B and fallback reserve {} B)",
        per_op.len(),
        ctx.fallback_bytes
    )];
    // Sized up front, so how often a line reallocates does not depend on
    // how many digits its numbers have.
    lines.extend(per_op.iter().map(|b| {
        let mut line = String::with_capacity(256);
        write!(line, "bounds[{b}]").expect("writing to a String cannot fail");
        line
    }));
    PlanCertificate {
        peak_bytes_bound: peak,
        primary_bytes_bound: primary,
        fallback_bytes: ctx.fallback_bytes,
        per_op_bounds: per_op,
        overflow_proof: overflow_proof.unwrap_or(OverflowProof::I32Tile),
        workers,
        stats_generations,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Alloc, Artifact, ArtifactKind, ColumnDecl, Committed, FkDecl, Scope};
    use swole_cost::AggStrategy;

    const TILE: usize = 1024;

    fn table(name: &str, rows: usize, cols: &[(&str, ColType)]) -> TableDecl {
        TableDecl {
            name: name.to_string(),
            rows,
            columns: cols
                .iter()
                .map(|(n, t)| ColumnDecl {
                    name: (*n).to_string(),
                    ty: *t,
                })
                .collect(),
        }
    }

    fn grouped_agg_program(rows: usize) -> Program {
        let mut op = Op::new("groupby-agg(t)", "/scan-agg", "t", rows);
        op.exprs.push(BoundExpr {
            role: ExprRole::Predicate,
            expr: VExpr::Cmp(vec![VExpr::Col("v".into()), VExpr::Lit(10)]),
        });
        op.exprs.push(BoundExpr {
            role: ExprRole::AggInput,
            expr: VExpr::Col("v".into()),
        });
        op.exprs.push(BoundExpr {
            role: ExprRole::GroupKey,
            expr: VExpr::Col("g".into()),
        });
        op.strategy = Some(Committed::as_modelled(StrategyRef::Agg {
            strategy: AggStrategy::Hybrid,
            grouped: true,
        }));
        op.n_aggs = Some(1);
        op.scratch_bytes = 3 * TILE * 8;
        op.locals.push(Artifact {
            kind: ArtifactKind::ValueMask,
            table: "t".into(),
            rows: TILE,
            scope: Scope::Tile,
        });
        op.allocs.push(Alloc {
            site: "worker-scratch".into(),
            charged: true,
        });
        op.allocs.push(Alloc {
            site: "agg-table".into(),
            charged: true,
        });
        Program {
            tables: vec![table(
                "t",
                rows,
                &[("v", ColType::Int(64)), ("g", ColType::Int(64))],
            )],
            fks: Vec::new(),
            ops: vec![op],
            tile_rows: TILE,
        }
    }

    fn profile_with_ndv(ndv: u64) -> TableProfile {
        TableProfile {
            table: "t".into(),
            generation: 1,
            columns: vec![
                ColumnProfile {
                    name: "v".into(),
                    min: 0,
                    max: 100,
                    ndv: None,
                },
                ColumnProfile {
                    name: "g".into(),
                    min: 0,
                    max: ndv as i64 - 1,
                    ndv: Some(ndv),
                },
            ],
        }
    }

    #[test]
    fn exact_ndv_tightens_grouped_hash_table_bound() {
        let p = grouped_agg_program(100_000);
        let loose = certify(&p, &BoundsCtx::without_stats(2));
        let tight = certify(
            &p,
            &BoundsCtx {
                profiles: vec![profile_with_ndv(8)],
                ..BoundsCtx::without_stats(2)
            },
        );
        assert!(loose.is_bounded() && tight.is_bounded());
        // 8 groups fit the initial 128-slot table; 100k groups force growth.
        assert!(
            tight.peak_bytes_bound < loose.peak_bytes_bound,
            "ndv=8 bound {} must beat ndv-unknown bound {}",
            tight.peak_bytes_bound,
            loose.peak_bytes_bound
        );
        assert_eq!(tight.per_op_bounds[0].out_rows_bound, 8);
        assert_eq!(loose.per_op_bounds[0].out_rows_bound, 100_000);
        assert_eq!(tight.stats_generations, vec![("t".to_string(), 1)]);
    }

    #[test]
    fn a_dense_group_table_is_bounded_by_its_domain_not_its_keys() {
        let mut p = grouped_agg_program(100_000);
        let hash = certify(&p, &BoundsCtx::without_stats(2));
        p.ops[0].dense_group_slots = Some(1024);
        let dense = certify(&p, &BoundsCtx::without_stats(2));
        // No growth discipline to assume the worst of: the array is what
        // the type says it is, per worker.
        assert_eq!(
            dense.per_op_bounds[0].ht_bytes_bound,
            2 * DenseAggTable::bytes_for(1024, 1) as u64
        );
        assert!(dense.peak_bytes_bound < hash.peak_bytes_bound);
        assert_eq!(
            dense.per_op_bounds[0].worker_bytes_bound,
            hash.per_op_bounds[0].worker_bytes_bound
        );
    }

    #[test]
    fn bounds_scale_with_worker_count() {
        let p = grouped_agg_program(10_000);
        let w1 = certify(&p, &BoundsCtx::without_stats(1));
        let w8 = certify(&p, &BoundsCtx::without_stats(8));
        assert!(w8.peak_bytes_bound > w1.peak_bytes_bound);
        // Scratch is whatever the lowering declared, per worker.
        assert_eq!(
            w1.per_op_bounds[0].worker_bytes_bound,
            p.ops[0].scratch_bytes as u64
        );
        assert_eq!(
            w8.per_op_bounds[0].worker_bytes_bound,
            8 * w1.per_op_bounds[0].worker_bytes_bound
        );
    }

    #[test]
    fn stats_bounded_column_proves_sum_overflow_safe() {
        let p = grouped_agg_program(100_000);
        // |v| <= 100 over 100k rows: 10^7 << i64::MAX — provably safe.
        let cert = certify(
            &p,
            &BoundsCtx {
                profiles: vec![profile_with_ndv(8)],
                ..BoundsCtx::without_stats(1)
            },
        );
        assert_eq!(cert.overflow_proof, OverflowProof::I32Tile);
        assert_eq!(cert.per_op_bounds[0].max_input, Some(100));
        // Without statistics the column is ⊤ and nothing is provable.
        let blind = certify(&p, &BoundsCtx::without_stats(1));
        assert_eq!(blind.overflow_proof, OverflowProof::I64);
        assert_eq!(blind.per_op_bounds[0].max_input, Some(1 << 63));
    }

    /// One scalar `sum(x * y)` over a table of `x`, `y` of type `ty`.
    fn product_sum(ty: ColType, rows: usize) -> Program {
        let mut op = Op::new("scan-agg(t)", "/scan-agg", "t", rows);
        op.exprs.push(BoundExpr {
            role: ExprRole::AggInput,
            expr: VExpr::Arith(
                ArithOp::Mul,
                vec![VExpr::Col("x".into()), VExpr::Col("y".into())],
            ),
        });
        Program {
            tables: vec![table("t", rows, &[("x", ty), ("y", ty)])],
            fks: Vec::new(),
            ops: vec![op],
            tile_rows: TILE,
        }
    }

    /// Without statistics a column is its type's range: two `i8`s prove a
    /// product sum into `i32` tiles, two `i16`s and two `i64`s nothing.
    #[test]
    fn a_column_without_statistics_is_its_types_range() {
        let blind = BoundsCtx::without_stats(1);
        let narrow = certify(&product_sum(ColType::Int(8), 100_000), &blind);
        assert_eq!(narrow.overflow_proof, OverflowProof::I32Tile);
        assert_eq!(narrow.per_op_bounds[0].max_input, Some(128 * 128));
        assert!(narrow.lines[1].ends_with(", i32 tile (|input| <= 16384)]"));
        // 32768² · 1024 escapes an i32 tile.
        let mid = certify(&product_sum(ColType::Int(16), 100_000), &blind);
        assert_eq!(mid.overflow_proof, OverflowProof::I64);
        assert!(!mid.lines[1].contains("i32 tile"));
        let wide = certify(&product_sum(ColType::Int(64), 100_000), &blind);
        assert_eq!(wide.overflow_proof, OverflowProof::I64);
        assert_eq!(wide.per_op_bounds[0].max_input, Some(1 << 63));
    }

    /// The `i32` tile verdict at its boundary: the largest product whose
    /// tile sum fits (`⌊i32::MAX / TILE⌋`), and one more.
    #[test]
    fn the_i32_tile_verdict_holds_exactly_up_to_its_bound() {
        let limit = i64::from(i32::MAX) / TILE as i64;
        for (x, y, proof) in [
            (49, limit / 49, OverflowProof::I32Tile),
            (2048, (limit + 1) / 2048, OverflowProof::I64),
        ] {
            let column = |name: &str, v: i64| ColumnProfile {
                name: name.into(),
                min: -v,
                max: v,
                ndv: None,
            };
            let ctx = BoundsCtx {
                profiles: vec![TableProfile {
                    table: "t".into(),
                    generation: 1,
                    columns: vec![column("x", x), column("y", y)],
                }],
                ..BoundsCtx::without_stats(1)
            };
            let cert = certify(&product_sum(ColType::Int(64), 10_000), &ctx);
            assert_eq!(cert.overflow_proof, proof, "{x} x {y}");
        }
        assert_eq!(49 * (limit / 49), limit, "the bound itself is a product");
    }

    #[test]
    fn interval_arithmetic_widens_on_i64_escape() {
        // (i64::MAX) + 1 escapes: widened to ⊤.
        let mut widest = 0;
        let e = VExpr::Arith(ArithOp::Add, vec![VExpr::Lit(i64::MAX), VExpr::Lit(1)]);
        let iv = eval_expr(&e, None, None, &mut widest);
        assert_eq!((iv, widest), (TOP, 1 << 63));

        // 3 * 4 stays exact.
        let mut widest = 0;
        let e = VExpr::Arith(ArithOp::Mul, vec![VExpr::Lit(3), VExpr::Lit(4)]);
        let iv = eval_expr(&e, None, None, &mut widest);
        assert_eq!((iv.lo, iv.hi, widest), (12, 12, 12));
    }

    #[test]
    fn division_by_interval_containing_zero_is_never_safe() {
        let mut widest = 0;
        let decl = table("t", 10, &[("d", ColType::Int(64))]);
        let profile = TableProfile {
            table: "t".into(),
            generation: 0,
            columns: vec![ColumnProfile {
                name: "d".into(),
                min: -1,
                max: 1,
                ndv: None,
            }],
        };
        let e = VExpr::Arith(ArithOp::Div, vec![VExpr::Lit(100), VExpr::Col("d".into())]);
        let iv = eval_expr(&e, Some(&decl), Some(&profile), &mut widest);
        assert_eq!((iv, widest), (TOP, 1 << 63));
    }

    #[test]
    fn semijoin_hash_build_bound_covers_grown_key_set() {
        let rows = 5_000usize;
        let mut build = Op::new("multijoin-build(s)", "/multijoin-agg/build", "s", rows);
        build.strategy = Some(Committed::as_modelled(StrategyRef::SemiJoinBuild(
            SemiJoinStrategy::Hash,
        )));
        let p = Program {
            tables: vec![table("s", rows, &[("k", ColType::Int(64))])],
            fks: Vec::new(),
            ops: vec![build],
            tile_rows: TILE,
        };
        let cert = certify(&p, &BoundsCtx::without_stats(4));
        let b = &cert.per_op_bounds[0];
        // A hash build charges its key set alone: the final capacity
        // (pow2 >= 2n+2) * 8.
        assert_eq!(b.plan_bytes_bound, 0);
        assert_eq!(b.ht_bytes_bound, KeySet::build_bytes_bound(rows) as u64);
        assert!(b.ht_bytes_bound >= (2 * rows as u64) * 8);
    }

    #[test]
    fn groupjoin_probe_keys_bounded_by_fk_parent_domain() {
        let (probe_rows, build_rows) = (60_000usize, 500usize);
        let mut op = Op::new("multijoin-agg(c)", "/multijoin-agg/probe", "c", probe_rows);
        op.exprs.push(BoundExpr {
            role: ExprRole::AggInput,
            expr: VExpr::Col("v".into()),
        });
        op.exprs.push(BoundExpr {
            role: ExprRole::GroupKey,
            expr: VExpr::Col("fk".into()),
        });
        op.strategy = Some(Committed::as_modelled(StrategyRef::GroupJoin(
            swole_cost::GroupJoinStrategy::GroupJoin,
        )));
        op.n_aggs = Some(1);
        let p = Program {
            tables: vec![
                table(
                    "c",
                    probe_rows,
                    &[("v", ColType::Int(64)), ("fk", ColType::U32)],
                ),
                table("par", build_rows, &[("x", ColType::Int(64))]),
            ],
            fks: vec![FkDecl {
                child: "c".into(),
                fk_col: "fk".into(),
                parent: "par".into(),
                child_rows: probe_rows,
                parent_rows: build_rows,
            }],
            ops: vec![op],
            tile_rows: TILE,
        };
        let cert = certify(&p, &BoundsCtx::without_stats(1));
        // Groups cannot exceed the FK parent domain, not the probe rows.
        assert_eq!(cert.per_op_bounds[0].out_rows_bound, build_rows as u64);
    }

    #[test]
    fn sort_bound_follows_core_output_cardinality() {
        let mut p = grouped_agg_program(100_000);
        let mut sort = Op::new("sort(t)", "/post/sort", "t", 100_000);
        sort.strategy = Some(Committed::as_modelled(StrategyRef::Sort));
        p.ops.push(sort);
        let cert = certify(
            &p,
            &BoundsCtx {
                profiles: vec![profile_with_ndv(8)],
                ..BoundsCtx::without_stats(1)
            },
        );
        // The sort permutation covers at most the 8 group rows, not the
        // 100k scanned rows.
        assert_eq!(cert.per_op_bounds[1].out_rows_bound, 8);
        assert_eq!(cert.per_op_bounds[1].plan_bytes_bound, 8 * 4);
    }

    /// A failed primary's charges are dropped before the retry, so the
    /// peak is the larger of the two, whichever it is.
    #[test]
    fn peak_is_the_larger_of_primary_and_fallback_reserve() {
        let p = grouped_agg_program(1_000);
        let primary = certify(&p, &BoundsCtx::without_stats(1)).primary_bytes_bound;
        for reserve in [primary / 2, primary * 2] {
            let cert = certify(
                &p,
                &BoundsCtx {
                    fallback_bytes: reserve,
                    ..BoundsCtx::without_stats(1)
                },
            );
            assert_eq!(cert.peak_bytes_bound, primary.max(reserve));
            assert_eq!(cert.primary_bytes_bound, primary);
            assert_eq!(cert.fallback_bytes, reserve);
        }
    }

    /// A stage of one morsel runs inline with one accumulator; one of `m`
    /// morsels holds at most `m`, and never more than the workers.
    #[test]
    fn partials_follow_the_stages_morsel_count() {
        let p = grouped_agg_program(10_000);
        let scratch = p.ops[0].scratch_bytes as u64;
        for (morsel_rows, partials) in [(16 * TILE, 1), (4 * TILE, 3), (TILE, 8)] {
            let ctx = BoundsCtx {
                morsel_rows,
                ..BoundsCtx::without_stats(8)
            };
            let cert = certify(&p, &ctx);
            let b = &cert.per_op_bounds[0];
            assert_eq!(b.worker_bytes_bound, partials * scratch, "{morsel_rows}");
            assert_eq!(cert.workers, 8);
        }
    }

    #[test]
    fn certificate_lines_render_summary_and_per_op() {
        let p = grouped_agg_program(1_000);
        let cert = certify(&p, &BoundsCtx::without_stats(2));
        assert!(cert.lines[0].contains("peak <="));
        assert!(cert.lines.iter().any(|l| l.contains("/scan-agg")));
    }
}
