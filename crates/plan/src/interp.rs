//! A deliberately naive reference interpreter, block at a time.
//!
//! Executes the same [`LogicalPlan`]s as the engine with zero cleverness —
//! Volcano-style iteration, grouping through a hash index into one flat
//! accumulator array that is sorted by key once, at the end — and the same
//! result conventions. The test suite cross-checks every engine result
//! against it (the role HyPer plays as a sanity baseline in the paper's
//! evaluation).
//!
//! Naive is not the same as slow per row: every expression is compiled once
//! per statement ([`Expr::compile`]: columns resolved to typed slices,
//! `LIKE` / `IN` to match tables), and scan → filter → semijoin hands the
//! aggregate blocks of surviving row ids ([`BLOCK`] at a time), each filter
//! narrowing the block and each semijoin checking its flag per id, so an
//! expression node dispatches once per block, not per row. No vector of
//! row ids is kept (a window keeps one, because it sorts). Access stays
//! data-centric: a step reads only the rows that reached it and an
//! operand of `AND` / `OR` / `CASE` only the rows it decides, so no lane is
//! wasted. The compiled blocks share no code with the engine's tile
//! programs, so the interpreter stays an independent oracle.

use crate::catalog::Database;
use crate::error::PlanError;
use crate::expr::{AggFunc, BlockExpr, Expr, BLOCK, ID_BLOCK_BYTES, VALUE_BLOCK_BYTES};
use crate::logical::{FrameSpec, LogicalPlan, WindowFunc};
use crate::metrics::OpMetrics;
use crate::result::{QueryResult, Rows};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use swole_verify::BoundsCtx;

/// Execute `plan` naively.
pub fn run(db: &Database, plan: &LogicalPlan) -> Result<QueryResult, PlanError> {
    run_metered(db, plan).map(|(res, _)| res)
}

/// What the interpreter holds however big its tables are: 2 KiB for the
/// result's column names and first rows, the filter and semijoin steps,
/// the counters and the group table's first buckets (a filtered scalar sum
/// holds under 1 KiB of them), and its blocks of [`BLOCK`] rows — the
/// surviving row ids, a value block the filters, the group key and the
/// aggregates take turns in, and a grouped run's slot per row.
const FIXED_BYTES: u64 = 2048 + VALUE_BLOCK_BYTES + 2 * ID_BLOCK_BYTES;

/// A group's bytes besides its accumulators, at the group table's worst
/// point. The hash index holds 16 B of key and slot plus a control byte
/// per bucket and doubles at 7/8 load: ≤ 39 B a key after a resize, ≤ 59 B
/// while it moves into twice its buckets. The key vector and the flat
/// accumulator array hold ≤ 2 slots of 8 B per group, 3 while one doubles.
/// So with `a` accumulators a group costs ≤ 75 + 16a B while the index
/// resizes, ≤ 63 + 24a B while a vector doubles, and ≤ 28 + 24a B while the
/// rows are written (the index gone, the sort order's 4 B and the result's
/// key and accumulators, in one buffer, added): ≤ 67 + 24a B for any
/// `a ≥ 1`. Writing the rows is never the peak.
const GROUP_BYTES: u64 = 67;

/// An accumulator's bytes per group: see [`GROUP_BYTES`].
const AGG_BYTES: u64 = 24;

/// What a data-centric retry of `plan` holds at its peak, by plan kind, on
/// top of [`FIXED_BYTES`], its compiled expressions and its semijoins' flag
/// per parent row: nothing more for a scalar aggregate, which streams its
/// blocks into one accumulator list; the group table for a grouped one,
/// over the bounds pass's key bound (`bounds`' statistics; an FK key also
/// has at most its parent's row count); and for a window, the per-row
/// vectors it sorts and evaluates, over every scanned row. A result shares
/// its dictionary with the table, so no string is copied.
pub(crate) fn fallback_bytes(db: &Database, plan: &LogicalPlan, bounds: &BoundsCtx) -> u64 {
    let table = |name: &str| db.table(name).ok();
    let rows = |name: &str| table(name).map_or(0, |t| t.len() as u64);
    let base = plan.base_table();
    let compiled = |e: &Expr, name: &str| table(name).map_or(0, |t| e.compiled_bytes(t));
    let (mut bytes, mut per_row, mut key_rows) = (FIXED_BYTES, 0, rows(base));
    let (mut key, mut window) = (None, false);
    plan.visit(&mut |node| match node {
        // `Rows::sort_by`: a 4 B row number per row, and the stable sort's
        // scratch of at most as many; the rows move in place.
        LogicalPlan::OrderBy { .. } => per_row += 8,
        LogicalPlan::Filter { input, predicate } => {
            bytes += compiled(predicate, input.base_table());
        }
        LogicalPlan::SemiJoin { build, fk_col, .. } => {
            // A row that passed has a parent row, so its FK takes at most as
            // many values as the parent has rows.
            let parents = rows(build.base_table());
            bytes += parents;
            if key == Some(fk_col.as_str()) {
                key_rows = key_rows.min(parents);
            }
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            bytes += aggs.iter().map(|a| compiled(&a.expr, base)).sum::<u64>();
            bytes += group_by
                .as_ref()
                .map_or(0, |g| compiled(&Expr::col(g), base));
            per_row += GROUP_BYTES + AGG_BYTES * aggs.len() as u64;
            key = group_by.as_deref();
        }
        LogicalPlan::Window {
            order_by,
            funcs,
            select,
            partition_by,
            ..
        } => {
            let inputs = funcs.iter().filter_map(|f| f.expr.as_ref());
            let columns = select.iter().chain(partition_by).map(Expr::col);
            let columns = columns.chain(order_by.iter().map(|k| Expr::col(&k.column)));
            bytes += inputs
                .cloned()
                .chain(columns)
                .map(|e| compiled(&e, base))
                .sum::<u64>();
            // The row ids (grown by doubling: 8 B), the partition key and
            // the permutation; a vector per order key; a result cell per
            // projected column; per function its input and its result cell.
            let (k, s, f) = (order_by.len(), select.len(), funcs.len());
            per_row += 24 + 8 * k as u64 + 8 * s as u64 + 16 * f as u64;
            window = true;
        }
        LogicalPlan::Scan { .. } | LogicalPlan::Limit { .. } => {}
    });
    let held = match key {
        Some(g) => bounds.key_bound(base, Some(g), key_rows),
        None if window => rows(base),
        None => 0,
    };
    bytes.saturating_add(held.saturating_mul(per_row))
}

/// Execute `plan` naively, also reporting the interpreter's access
/// counters as a single operator (used when the engine falls back to the
/// data-centric strategy at `MetricsLevel::Counters`+). The interpreter
/// reads attributes conditionally, only for the rows that reach them, so
/// `wasted_lanes` is always 0 and `ht_probes` counts the semijoin
/// membership lookups.
pub fn run_metered(
    db: &Database,
    plan: &LogicalPlan,
) -> Result<(QueryResult, OpMetrics), PlanError> {
    // ORDER BY / LIMIT wrappers apply to their input's result, mirroring
    // the engine's `PostOp` handling so fallback results stay bit-identical.
    match plan {
        LogicalPlan::Limit { input, n } => {
            let (mut res, op) = run_metered(db, input)?;
            res.rows.truncate(*n);
            Ok((res, op))
        }
        LogicalPlan::OrderBy { input, keys } => {
            if keys.is_empty() {
                return Err(PlanError::Unsupported(
                    "ORDER BY needs at least one key".into(),
                ));
            }
            let (mut res, op) = run_metered(db, input)?;
            let key_idx = (keys.iter())
                .map(|k| Ok((res.column_index(&k.column)?, k.desc)))
                .collect::<Result<Vec<_>, PlanError>>()?;
            // Stable, so ties keep their pre-sort position.
            res.rows.sort_by(|ra, rb| {
                for &(i, desc) in &key_idx {
                    let ord = ra[i].cmp(&rb[i]);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            Ok((res, op))
        }
        _ => {
            let mut op = OpMetrics::named("data-centric interpreter");
            Ok((run_core(db, plan, &mut op)?, op))
        }
    }
}

fn run_core(
    db: &Database,
    plan: &LogicalPlan,
    op: &mut OpMetrics,
) -> Result<QueryResult, PlanError> {
    if let LogicalPlan::Window { .. } = plan {
        return run_window(db, plan, op);
    }
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
    } = plan
    else {
        return Err(PlanError::Unsupported(
            "top-level node must be an aggregation or window".into(),
        ));
    };
    if aggs.is_empty() {
        return Err(PlanError::Unsupported("empty aggregate list".into()));
    }
    let table = db.table(input.base_table())?;
    let mut exprs = aggs
        .iter()
        .map(|a| a.expr.compile(table))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rows = Survivors::compile(db, input, op)?;
    let identities: Vec<i64> = aggs
        .iter()
        .map(|a| match a.func {
            AggFunc::Min => i64::MAX,
            AggFunc::Max => i64::MIN,
            AggFunc::Sum | AggFunc::Count => 0,
        })
        .collect();
    // Wrapping accumulation matches the engine's kernels exactly, so
    // fallback results stay bit-identical even on wraparound inputs.
    match group_by {
        None => {
            let mut acc = identities;
            op.access.rows_out = rows.for_each(op, |ids, vals| {
                for ((acc, a), e) in acc.iter_mut().zip(aggs).zip(&mut exprs) {
                    let vals = inputs(a.func, e, ids, vals);
                    *acc = match a.func {
                        AggFunc::Count => acc.wrapping_add(vals.len() as i64),
                        AggFunc::Sum => vals.iter().fold(*acc, |s, &v| s.wrapping_add(v)),
                        AggFunc::Min => vals.iter().fold(*acc, |s, &v| s.min(v)),
                        AggFunc::Max => vals.iter().fold(*acc, |s, &v| s.max(v)),
                    };
                }
            });
            if op.access.rows_out == 0 {
                acc.fill(0);
            }
            Ok(QueryResult {
                columns: aggs.iter().map(|a| a.name.clone()).collect(),
                rows: Rows::from_values(acc.len(), acc),
                metrics: None,
                key_dict: None,
            })
        }
        Some(g) => {
            // Mirror the engine's surface: grouped aggregation over more
            // than one join edge is unsupported everywhere, so rejection
            // stays uniform across all differential runners.
            let mut edges = 0;
            input.visit(&mut |n| edges += matches!(n, LogicalPlan::SemiJoin { .. }) as usize);
            if edges > 1 {
                return Err(PlanError::Unsupported(format!(
                    "group by {g} over a multi-way join"
                )));
            }
            let mut key = Expr::col(g).compile(table)?;
            // One group table: a hash index from key to slot, the keys in
            // first-seen order and every group's accumulators in one flat
            // array, a row of `width` per slot.
            let width = identities.len();
            let mut index: HashMap<i64, u32, BuildHasherDefault<Mix>> = HashMap::default();
            let (mut keys, mut accs) = (Vec::new(), Vec::new());
            let mut slots = vec![0u32; BLOCK];
            op.access.rows_out = rows.for_each(op, |ids, vals| {
                let (block_keys, slots) = (&mut vals[..ids.len()], &mut slots[..ids.len()]);
                key.eval(ids, block_keys);
                for (slot, &k) in slots.iter_mut().zip(&*block_keys) {
                    *slot = *index.entry(k).or_insert_with(|| {
                        keys.push(k);
                        accs.extend_from_slice(&identities);
                        (keys.len() - 1) as u32
                    });
                }
                for (i, (a, e)) in aggs.iter().zip(&mut exprs).enumerate() {
                    let vals = inputs(a.func, e, ids, vals);
                    let (cells, slots) = (&mut accs[i..], &*slots);
                    match a.func {
                        AggFunc::Count => {
                            fold_groups(cells, width, slots, vals, |acc, _| acc.wrapping_add(1))
                        }
                        AggFunc::Sum => fold_groups(cells, width, slots, vals, i64::wrapping_add),
                        AggFunc::Min => fold_groups(cells, width, slots, vals, i64::min),
                        AggFunc::Max => fold_groups(cells, width, slots, vals, i64::max),
                    }
                }
            });
            // Gone before the rows are built, as `GROUP_BYTES` prices it.
            drop(index);
            // The order is used once, to write the groups by ascending key.
            let mut order: Vec<u32> = (0..keys.len() as u32).collect();
            order.sort_unstable_by_key(|&s| keys[s as usize]);
            let mut out = Rows::with_capacity(1 + width, keys.len());
            for &s in &order {
                let s = s as usize;
                out.push_keyed(keys[s], &accs[s * width..][..width]);
            }
            let mut columns = vec![g.clone()];
            columns.extend(aggs.iter().map(|a| a.name.clone()));
            Ok(QueryResult {
                columns,
                metrics: None,
                key_dict: table
                    .column_required(g)
                    .as_dict()
                    .map(|d| d.shared_dictionary()),
                rows: out,
            })
        }
    }
}

/// An aggregate's inputs over the block `ids`, in `vals`; a count's are
/// never evaluated.
fn inputs<'v>(func: AggFunc, e: &mut BlockExpr<'_>, ids: &[u32], vals: &'v mut [i64]) -> &'v [i64] {
    let vals = &mut vals[..ids.len()];
    if func != AggFunc::Count {
        e.eval(ids, vals);
    }
    vals
}

/// Fold a block's values `vals` into their rows' accumulators by `f`: a
/// row's slot `s` in `slots` picks `accs[s * width]`.
fn fold_groups(
    accs: &mut [i64],
    width: usize,
    slots: &[u32],
    vals: &[i64],
    f: impl Fn(i64, i64) -> i64,
) {
    for (&s, &v) in slots.iter().zip(vals) {
        let acc = &mut accs[s as usize * width];
        *acc = f(*acc, v);
    }
}

/// The group index's hasher: `fmix64`, MurmurHash3's finaliser, of the
/// key. A bijection of the 64-bit key that spreads every input bit over
/// the output, fixed and std-only, so the index costs a few multiplies a
/// key and not SipHash's rounds. Being fixed, it has no defence against
/// keys crafted to collide; neither has the engine's own group table
/// (`swole_ht`'s multiplicative hash), which sees the same keys first.
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn write_i64(&mut self, k: i64) {
        let mut h = k as u64;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        self.0 = h ^ (h >> 33);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_i64((self.0 ^ b as u64) as i64);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Naive window execution: sort the qualifying rows by (partition, order
/// keys, row id), then take every frame of a `SUM` / `COUNT` as the
/// difference of two wrapping prefix sums. Wrapping addition is
/// associative and its subtraction an exact inverse (mod 2^64), so this
/// matches both engine frame strategies bit-for-bit.
fn run_window(
    db: &Database,
    plan: &LogicalPlan,
    op: &mut OpMetrics,
) -> Result<QueryResult, PlanError> {
    let LogicalPlan::Window {
        input,
        partition_by,
        order_by,
        frame,
        funcs,
        select,
    } = plan
    else {
        unreachable!("run_window called on a non-window plan");
    };
    let base = input.base_table();
    let table = db.table(base)?;
    for c in select
        .iter()
        .map(String::as_str)
        .chain(order_by.iter().map(|k| k.column.as_str()))
        .chain(partition_by.as_deref())
    {
        if table.column(c).is_none() {
            return Err(PlanError::UnknownColumn {
                table: base.to_string(),
                column: c.to_string(),
            });
        }
    }
    let mut names: Vec<&str> = select.iter().map(String::as_str).collect();
    names.extend(funcs.iter().map(|f| f.name.as_str()));
    for (i, n) in names.iter().enumerate() {
        if names[..i].contains(n) {
            return Err(PlanError::Unsupported(format!(
                "duplicate output column name {n}"
            )));
        }
    }
    let func_exprs = funcs
        .iter()
        .map(|f| f.expr.as_ref().map(|e| e.compile(table)).transpose())
        .collect::<Result<Vec<_>, _>>()?;
    let mut rows: Vec<u32> = Vec::new();
    op.access.rows_out = Survivors::compile(db, input, op)?.for_each(op, |ids, _| rows.extend(ids));
    let m = rows.len();
    let eval = |mut e: BlockExpr<'_>| -> Vec<i64> {
        let mut out = vec![0; m];
        e.eval(&rows, &mut out);
        out
    };
    let col = |name: &str| Expr::col(name).compile(table).expect("checked column");
    let part: Vec<i64> = match partition_by {
        Some(p) => eval(col(p)),
        None => vec![0; m],
    };
    let ord: Vec<Vec<i64>> = order_by.iter().map(|k| eval(col(&k.column))).collect();
    // A function without an argument reads no input.
    let inputs: Vec<Vec<i64>> = func_exprs
        .into_iter()
        .map(|e| e.map_or_else(Vec::new, eval))
        .collect();
    // Window order: (partition, order keys, base row id) — the same total
    // order the engine sorts by. The row id makes every key distinct, so an
    // unstable sort gives the one permutation a stable one would.
    let mut perm: Vec<usize> = (0..m).collect();
    perm.sort_unstable_by(|&a, &b| {
        let mut o = part[a].cmp(&part[b]);
        if o != Ordering::Equal {
            return o;
        }
        for (k, key) in order_by.iter().zip(&ord) {
            o = key[a].cmp(&key[b]);
            if k.desc {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                return o;
            }
        }
        rows[a].cmp(&rows[b])
    });
    // The result rows in window order, in one buffer: the projected
    // columns, then a cell per function; the projected columns are read a
    // block of window rows at a time and written straight into their cells.
    let (s, width) = (select.len(), select.len() + funcs.len());
    let mut sel: Vec<BlockExpr<'_>> = select.iter().map(|c| col(c)).collect();
    let mut cells = vec![0; m * width];
    let (mut ids, mut vals) = ([0u32; BLOCK], [0i64; BLOCK]);
    for (perm, block) in perm
        .chunks(BLOCK)
        .zip(cells.chunks_mut(BLOCK * width.max(1)))
    {
        let (ids, vals) = (&mut ids[..perm.len()], &mut vals[..perm.len()]);
        for (id, &src) in ids.iter_mut().zip(perm) {
            *id = rows[src];
        }
        for (c, e) in sel.iter_mut().enumerate() {
            e.eval(ids, vals);
            for (row, &v) in block.chunks_exact_mut(width).zip(&*vals) {
                row[c] = v;
            }
        }
    }
    let mut run_start = 0;
    while run_start < m {
        let mut run_end = run_start + 1;
        while run_end < m && part[perm[run_end]] == part[perm[run_start]] {
            run_end += 1;
        }
        let len = run_end - run_start;
        let run = &mut cells[run_start * width..run_end * width];
        for (fi, f) in funcs.iter().enumerate() {
            // Row `i`'s cell of this function.
            let at = |i: usize| i * width + s + fi;
            match f.func {
                WindowFunc::RowNumber => {
                    for i in 0..len {
                        run[at(i)] = (i + 1) as i64;
                    }
                }
                WindowFunc::Rank => {
                    let mut rank = 1i64;
                    for i in 0..len {
                        let peer = i > 0
                            && ord
                                .iter()
                                .all(|k| k[perm[run_start + i - 1]] == k[perm[run_start + i]]);
                        if i > 0 && !peer {
                            rank = (i + 1) as i64;
                        }
                        run[at(i)] = rank;
                    }
                }
                WindowFunc::Sum | WindowFunc::Count => {
                    // The inclusive prefix sums go into the cells; then,
                    // right to left, each cell becomes its frame's sum,
                    // the prefix at the frame's end less the one before
                    // its start, which lies to the left and is still a
                    // prefix.
                    // A `COUNT`, or a function without an input, adds 1 a row.
                    let (mut acc, input) = (0i64, &inputs[fi]);
                    for i in 0..len {
                        acc = acc.wrapping_add(match f.func {
                            WindowFunc::Sum if !input.is_empty() => input[perm[run_start + i]],
                            _ => 1,
                        });
                        run[at(i)] = acc;
                    }
                    for i in (0..len).rev() {
                        let (lo, hi) = match frame {
                            FrameSpec::WholePartition => (0, acc),
                            FrameSpec::UnboundedPreceding => (0, run[at(i)]),
                            FrameSpec::Preceding(k) => (i.saturating_sub(*k), run[at(i)]),
                        };
                        let before = if lo == 0 { 0 } else { run[at(lo - 1)] };
                        run[at(i)] = hi.wrapping_sub(before);
                    }
                }
            }
        }
        run_start = run_end;
    }
    let mut columns: Vec<String> = select.clone();
    columns.extend(funcs.iter().map(|f| f.name.clone()));
    Ok(QueryResult {
        columns,
        rows: Rows::from_values(width, cells),
        metrics: None,
        key_dict: select
            .first()
            .and_then(|c| table.column(c))
            .and_then(|c| c.as_dict())
            .map(|d| d.shared_dictionary()),
    })
}

/// The rows of the plan's base table that survive all filters and
/// semijoins, compiled once per statement: each filter against the table,
/// each semijoin's build side run to a membership flag per parent row.
struct Survivors<'a> {
    /// Rows of the base table.
    len: u32,
    /// Innermost first, the order the plan applies them.
    steps: Vec<Step<'a>>,
}

enum Step<'a> {
    Filter(BlockExpr<'a>),
    SemiJoin { fk: &'a [u32], parent: Vec<bool> },
}

impl Step<'_> {
    /// Narrow the block `ids` to the rows this step keeps, in order, at its
    /// front, without a branch; `vals` is a filter's scratch. Returns how
    /// many it keeps.
    fn narrow(&mut self, ids: &mut [u32], vals: &mut [i64]) -> usize {
        let mut kept = 0;
        match self {
            Step::Filter(e) => {
                let vals = &mut vals[..ids.len()];
                e.eval(ids, vals);
                for (i, &v) in vals.iter().enumerate() {
                    ids[kept] = ids[i];
                    kept += (v != 0) as usize;
                }
            }
            Step::SemiJoin { fk, parent } => {
                for i in 0..ids.len() {
                    let id = ids[i];
                    ids[kept] = id;
                    kept += (parent.get(fk[id as usize] as usize) == Some(&true)) as usize;
                }
            }
        }
        kept
    }
}

impl<'a> Survivors<'a> {
    /// Compile the scan → filter → semijoin chain `plan`, running every
    /// semijoin's build side. Its errors are the statement's, in the order
    /// a recursive walk meets them.
    fn compile(
        db: &'a Database,
        plan: &LogicalPlan,
        op: &mut OpMetrics,
    ) -> Result<Self, PlanError> {
        match plan {
            LogicalPlan::Scan { table } => Ok(Survivors {
                len: u32::try_from(db.table(table)?.len())
                    .map_err(|_| PlanError::Unsupported(format!("{table} has over 2^32 rows")))?,
                steps: Vec::new(),
            }),
            LogicalPlan::Filter { input, predicate } => {
                let table = db.table(input.base_table())?;
                let step = Step::Filter(predicate.compile(table)?);
                let mut rows = Survivors::compile(db, input, op)?;
                rows.steps.push(step);
                Ok(rows)
            }
            LogicalPlan::SemiJoin {
                input,
                build,
                fk_col,
            } => {
                let child = db.table(input.base_table())?;
                let parent_name = build.base_table();
                let mut parent = vec![false; db.table(parent_name)?.len()];
                Survivors::compile(db, build, op)?.for_each(op, |ids, _| {
                    ids.iter().for_each(|&r| parent[r as usize] = true)
                });
                let fk = child
                    .column(fk_col)
                    .ok_or_else(|| PlanError::UnknownColumn {
                        table: input.base_table().to_string(),
                        column: fk_col.clone(),
                    })?
                    .as_u32()
                    .ok_or_else(|| PlanError::MissingFkIndex {
                        child: input.base_table().to_string(),
                        fk_column: fk_col.clone(),
                    })?;
                let mut rows = Survivors::compile(db, input, op)?;
                rows.steps.push(Step::SemiJoin { fk, parent });
                Ok(rows)
            }
            LogicalPlan::Aggregate { .. }
            | LogicalPlan::Window { .. }
            | LogicalPlan::OrderBy { .. }
            | LogicalPlan::Limit { .. } => Err(PlanError::Unsupported(
                "nested aggregation or window".into(),
            )),
        }
    }

    /// Call `f` with every block of surviving rows, in row order, and a
    /// value block of scratch, and return how many rows there were. Every
    /// row reaching a filter is one predicate evaluation and every row
    /// reaching a semijoin one membership probe, as when each step
    /// filtered a vector of row ids.
    fn for_each(&mut self, op: &mut OpMetrics, mut f: impl FnMut(&[u32], &mut [i64])) -> u64 {
        let (mut ids, mut vals) = (vec![0u32; BLOCK], vec![0i64; BLOCK]);
        let mut reached = vec![0u64; self.steps.len()];
        let mut out = 0;
        for start in (0..self.len).step_by(BLOCK) {
            let mut n = BLOCK.min((self.len - start) as usize);
            for (i, id) in ids[..n].iter_mut().enumerate() {
                *id = start + i as u32;
            }
            for (step, reached) in self.steps.iter_mut().zip(&mut reached) {
                *reached += n as u64;
                n = step.narrow(&mut ids[..n], &mut vals);
            }
            if n > 0 {
                out += n as u64;
                f(&ids[..n], &mut vals);
            }
        }
        op.access.rows_in += u64::from(self.len);
        for (step, n) in self.steps.iter().zip(reached) {
            match step {
                Step::Filter(_) => op.access.predicate_evals += n,
                Step::SemiJoin { .. } => op.access.ht_probes += n,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::logical::{AggSpec, QueryBuilder};
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use swole_storage::{ColumnData, DictColumn, Table};

    const ROWS: usize = 200_000;
    const PARENTS: usize = 1000;
    const WORDS: [&str; 5] = ["PROMO A", "STD", "PROMO B", "ECO", "LUX"];

    /// The columns of R(k, v, x, d, fk) → P(y), kept to fold them without
    /// the interpreter. `k` draws from 128 Ki keys spread over the whole
    /// `i64` range (`i64::MIN`, `i64::MAX` and negative keys among them),
    /// each at least once; `v` is full-range, so sums wrap.
    struct Data {
        k: Vec<i64>,
        v: Vec<i64>,
        x: Vec<i8>,
        d: Vec<u32>,
        fk: Vec<u32>,
        y: Vec<i8>,
    }

    fn data() -> Data {
        let mut state = 0x5eed_01d5_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut pool: Vec<i64> = (0..1 << 17).map(|_| next() as i64).collect();
        pool[..4].copy_from_slice(&[i64::MIN, i64::MAX, -1, 0]);
        let k = (0..ROWS)
            .map(|i| {
                pool.get(i)
                    .copied()
                    .unwrap_or_else(|| pool[(next() >> 47) as usize])
            })
            .collect();
        let mut col = |n: u64| -> Vec<u64> { (0..ROWS).map(|_| (next() >> 32) % n).collect() };
        let (x, d, fk) = (col(128), col(WORDS.len() as u64), col(PARENTS as u64));
        let v = (0..ROWS).map(|_| next() as i64).collect();
        let y = (0..PARENTS).map(|_| (next() >> 57) as i8).collect();
        Data {
            k,
            v,
            x: x.into_iter().map(|x| x as i8).collect(),
            d: d.into_iter().map(|d| d as u32).collect(),
            fk: fk.into_iter().map(|f| f as u32).collect(),
            y,
        }
    }

    fn database(data: &Data) -> Database {
        let words: Vec<String> = WORDS.iter().map(|w| w.to_string()).collect();
        let mut db = Database::new();
        db.add_table(
            Table::new("R")
                .with_column("k", ColumnData::I64(data.k.clone()))
                .with_column("v", ColumnData::I64(data.v.clone()))
                .with_column("x", ColumnData::I8(data.x.clone()))
                .with_column(
                    "d",
                    ColumnData::Dict(DictColumn::from_parts(data.d.clone(), words)),
                )
                .with_column("fk", ColumnData::U32(data.fk.clone())),
        );
        db.add_table(Table::new("P").with_column("y", ColumnData::I8(data.y.clone())));
        db
    }

    fn aggs() -> Vec<AggSpec> {
        vec![
            AggSpec::sum(Expr::col("v"), "s"),
            AggSpec::count("n"),
            AggSpec::min(Expr::col("v"), "lo"),
            AggSpec::max(Expr::col("v"), "hi"),
        ]
    }

    /// The grouped rows and the four access counters (`rows_in`,
    /// `predicate_evals`, `ht_probes`, `rows_out`) of R filtered to
    /// `x < x_lt`, semijoined to P's rows with `y < y_lt` when given,
    /// grouped by `key`, folded into a `BTreeMap` row by row.
    fn fold(
        data: &Data,
        key: impl Fn(usize) -> i64,
        x_lt: i8,
        y_lt: Option<i8>,
    ) -> (Vec<Vec<i64>>, [u64; 4]) {
        let mut groups: BTreeMap<i64, [i64; 4]> = BTreeMap::new();
        // Every scanned row, of R and of a semijoin's P, reaches one filter.
        let scanned = (ROWS + y_lt.map_or(0, |_| PARENTS)) as u64;
        let (mut probes, mut out) = (0, 0);
        for row in 0..ROWS {
            if data.x[row] >= x_lt {
                continue;
            }
            if let Some(y_lt) = y_lt {
                probes += 1;
                if data.y[data.fk[row] as usize] >= y_lt {
                    continue;
                }
            }
            out += 1;
            let v = data.v[row];
            let acc = groups.entry(key(row)).or_insert([0, 0, i64::MAX, i64::MIN]);
            *acc = [
                acc[0].wrapping_add(v),
                acc[1] + 1,
                acc[2].min(v),
                acc[3].max(v),
            ];
        }
        let rows = groups
            .into_iter()
            .map(|(k, acc)| [k].into_iter().chain(acc).collect())
            .collect();
        (rows, [scanned, scanned, probes, out])
    }

    fn counters(op: &OpMetrics) -> [u64; 4] {
        let a = &op.access;
        [a.rows_in, a.predicate_evals, a.ht_probes, a.rows_out]
    }

    /// The interpreter's semijoin reads a registered FK from the child
    /// column's own buffer, as the executor does.
    #[test]
    fn semijoin_reads_the_fk_column_in_place() {
        let mut db = Database::new();
        db.add_table(Table::new("P").with_column("y", ColumnData::I8(vec![1, 2])));
        db.add_table(Table::new("R").with_column("fk", ColumnData::U32(vec![1, 0, 1])));
        db.add_fk("R", "fk", "P").expect("valid FK");
        let scan = |t: &str| Box::new(LogicalPlan::Scan { table: t.into() });
        let plan = LogicalPlan::SemiJoin {
            input: scan("R"),
            build: scan("P"),
            fk_col: "fk".into(),
        };
        let survivors = Survivors::compile(&db, &plan, &mut OpMetrics::default()).unwrap();
        let column = db
            .table("R")
            .unwrap()
            .column("fk")
            .unwrap()
            .as_u32()
            .unwrap();
        match &survivors.steps[..] {
            [Step::SemiJoin { fk, .. }] => assert_eq!(fk.as_ptr(), column.as_ptr()),
            _ => panic!("one semijoin step"),
        }
    }

    #[test]
    fn grouped_rows_match_an_independent_fold() {
        let data = data();
        let db = database(&data);
        let x_lt = |n| Expr::col("x").cmp(CmpOp::Lt, Expr::lit(n));
        let wide = QueryBuilder::scan("R")
            .filter(x_lt(100))
            .aggregate(Some("k"), aggs());
        let dict = QueryBuilder::scan("R")
            .filter(x_lt(64))
            .semijoin(
                QueryBuilder::scan("P").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
                "fk",
            )
            .aggregate(Some("d"), aggs());
        let none = QueryBuilder::scan("R")
            .filter(x_lt(0))
            .aggregate(Some("k"), aggs());
        let key = |r: usize| data.k[r];
        let code = |r: usize| data.d[r] as i64;
        let cases = [
            ("wide keys", wide, fold(&data, key, 100, None)),
            ("dictionary key", dict, fold(&data, code, 64, Some(50))),
            ("no rows", none, fold(&data, key, 0, None)),
        ];
        for (name, plan, (want, want_counters)) in cases {
            let (res, op) = run_metered(&db, &plan).expect("interprets");
            assert_eq!(res.rows, want, "{name}");
            assert!(
                res.rows
                    .iter()
                    .zip(res.rows.iter().skip(1))
                    .all(|(a, b)| a[0] < b[0]),
                "{name}: ascending keys"
            );
            assert_eq!(counters(&op), want_counters, "{name}");
            match name {
                "wide keys" => {
                    assert!(
                        res.rows.len() > 100_000,
                        "{name}: {} groups",
                        res.rows.len()
                    );
                    let keys = [i64::MIN, -1, i64::MAX].map(|k| want.iter().any(|r| r[0] == k));
                    assert_eq!(keys, [true; 3], "{name}: extreme and negative keys");
                }
                "dictionary key" => {
                    let table = db.table("R").expect("R");
                    let d = table.column_required("d").as_dict().expect("dictionary");
                    let shared = res.key_dict.as_ref().expect("decodes its keys");
                    assert!(Arc::ptr_eq(shared, &d.shared_dictionary()), "{name}");
                }
                _ => assert!(res.rows.is_empty(), "{name}"),
            }
        }
    }

    /// The block evaluator against an independent per-row fold: tables
    /// around the block size; filters that keep no row, every row or every
    /// other one, with a semijoin and without; guarded divisions over rows
    /// where `b = 0`, which must never run; a nested `CASE` inside `SUM`.
    /// The rows and the four counters must match, scalar and grouped.
    #[test]
    fn blocks_match_a_per_row_fold() {
        use CmpOp::{Eq, Gt, Le, Lt, Ne};
        const PARENT_ROWS: usize = 7;
        let y: Vec<i8> = (0..PARENT_ROWS as i8).collect();
        let col = |c: &str| Expr::col(c);
        let lit = Expr::lit;
        let div = || Expr::Div(Box::new(col("a")), Box::new(col("b")));
        let b_ne_0 = || col("b").cmp(Ne, lit(0));
        let case = |when, then, otherwise| Expr::Case {
            when: Box::new(when),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        };
        let aggs = vec![
            AggSpec::sum(case(b_ne_0(), div(), lit(0)), "q"),
            AggSpec::sum(
                case(
                    col("odd").cmp(Eq, lit(1)),
                    case(b_ne_0(), div(), col("a")),
                    Expr::Sub(Box::new(lit(0)), Box::new(col("a"))),
                ),
                "nested",
            ),
            AggSpec::count("n"),
            AggSpec::min(col("a"), "lo"),
            AggSpec::max(col("a"), "hi"),
        ];
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            // `a` in [-100, 100], `b` cycling -1, 0, 1.
            let a: Vec<i64> = (0..n as i64).map(|i| i * 7919 % 201 - 100).collect();
            let b: Vec<i32> = (0..n as i32).map(|i| i % 3 - 1).collect();
            let odd: Vec<i8> = (0..n).map(|i| (i % 2) as i8).collect();
            let fk: Vec<u32> = (0..n as u32).map(|i| i * 5 % PARENT_ROWS as u32).collect();
            let mut db = Database::new();
            db.add_table(
                Table::new("T")
                    .with_column("a", ColumnData::I64(a.clone()))
                    .with_column("b", ColumnData::I32(b.clone()))
                    .with_column("odd", ColumnData::I8(odd.clone()))
                    .with_column("fk", ColumnData::U32(fk.clone())),
            );
            db.add_table(Table::new("P").with_column("y", ColumnData::I8(y.clone())));
            let quotient = |r: usize| a[r] / b[r] as i64;
            type Keeps<'a> = &'a dyn Fn(usize) -> bool;
            let filters: [(&str, Expr, Keeps<'_>); 5] = [
                ("none", col("a").cmp(Gt, lit(100)), &|_| false),
                ("all", col("a").cmp(Le, lit(100)), &|_| true),
                ("every other", col("odd").cmp(Eq, lit(1)), &|r| odd[r] == 1),
                (
                    "b <> 0 and a / b > 1",
                    b_ne_0().and(div().cmp(Gt, lit(1))),
                    &|r| b[r] != 0 && quotient(r) > 1,
                ),
                (
                    "b = 0 or a / b > 1",
                    col("b").cmp(Eq, lit(0)).or(div().cmp(Gt, lit(1))),
                    &|r| b[r] == 0 || quotient(r) > 1,
                ),
            ];
            let values = |r: usize| {
                let q = if b[r] != 0 { quotient(r) } else { 0 };
                let nested = match (odd[r], b[r]) {
                    (1, 0) => a[r],
                    (1, _) => quotient(r),
                    _ => -a[r],
                };
                [q, nested, 1, a[r], a[r]]
            };
            for (name, filter, keeps) in &filters {
                for (semijoin, grouped) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let mut q = QueryBuilder::scan("T").filter(filter.clone());
                    if semijoin {
                        let parents = QueryBuilder::scan("P").filter(col("y").cmp(Lt, lit(3)));
                        q = q.semijoin(parents, "fk");
                    }
                    let plan = q.aggregate(grouped.then_some("odd"), aggs.clone());
                    let mut groups: BTreeMap<i64, [i64; 5]> = BTreeMap::new();
                    let (mut probes, mut out) = (0, 0);
                    for r in (0..n).filter(|&r| keeps(r)) {
                        if semijoin {
                            probes += 1;
                            if y[fk[r] as usize] >= 3 {
                                continue;
                            }
                        }
                        out += 1;
                        let key = if grouped { odd[r] as i64 } else { 0 };
                        let acc = groups.entry(key).or_insert([0, 0, 0, i64::MAX, i64::MIN]);
                        let v = values(r);
                        *acc = [
                            acc[0].wrapping_add(v[0]),
                            acc[1].wrapping_add(v[1]),
                            acc[2] + 1,
                            acc[3].min(v[3]),
                            acc[4].max(v[4]),
                        ];
                    }
                    let want: Vec<Vec<i64>> = if grouped {
                        let rows = groups.into_iter();
                        rows.map(|(k, acc)| [k].into_iter().chain(acc).collect())
                            .collect()
                    } else {
                        vec![groups.remove(&0).map_or(vec![0; 5], Vec::from)]
                    };
                    let scanned = (n + if semijoin { PARENT_ROWS } else { 0 }) as u64;
                    let at = format!("{n} rows, {name}, semijoin {semijoin}, grouped {grouped}");
                    let (res, op) = run_metered(&db, &plan).expect("interprets");
                    assert_eq!(res.rows, want, "{at}");
                    assert_eq!(counters(&op), [scanned, scanned, probes, out], "{at}");
                }
            }
        }
    }
}
