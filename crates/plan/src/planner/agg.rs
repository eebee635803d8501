//! The aggregation arm: validation, the group table, the scan
//! aggregation's strategy decision (priced on that table), the statistics
//! shortcut, and the tail every aggregation shares (tile program, the
//! instance that runs). The decisions of an aggregation over join edges are
//! [`super::join`]'s.

use std::sync::Arc;

use super::join::extract_join_tree;
use super::{settle, Decision, PlanHints, Planner, SigmaOverrides};
use crate::error::PlanError;
use crate::expr::{AggFunc, Expr};
use crate::logical::{AggSpec, LogicalPlan};
use crate::physical::{
    AggMode, AggShape, CostProfile, Estimates, GroupTableRepr, Instance, JoinEdge, PhysicalPlan,
    Shape,
};
use crate::tile::TileProgram;
use swole_cost::choose::choose_agg_mt;
use swole_cost::{AggProfile, AggStrategy, JoinOrderMethod};
use swole_ht::{AggTable, DenseAggTable};
use swole_storage::{ColumnData, Table};

/// What a decision half of [`Planner::plan_agg`] settles: the edges in
/// probe order, how that order was found, the mode, the estimates it priced
/// with and the group table.
pub(super) type Decided = (
    Vec<JoinEdge>,
    JoinOrderMethod,
    AggMode,
    Estimates,
    GroupTableRepr,
);

/// A validated aggregation as the decision halves of [`Planner::plan_agg`]
/// read it, with the trail they append to.
pub(super) struct AggQuery<'a> {
    pub table: &'a Table,
    pub filter: Option<&'a Expr>,
    pub group_by: Option<&'a str>,
    pub aggs: &'a [AggSpec],
    pub has_minmax: bool,
    pub hints: PlanHints,
    pub decisions: Vec<String>,
    pub cost_terms: Vec<(String, f64)>,
}

impl Planner<'_> {
    /// Plan an aggregation over a scan restricted by zero or more FK join
    /// edges. The cost question depends on the edge count — which group
    /// table and scan-aggregation strategy ([`Self::decide_scan_agg`]), or
    /// which probe order, membership structures, sink and group table
    /// ([`Self::decide_join_agg`]) — but validation before it and the tail
    /// after it (tile program, the [`Instance`] that runs) do not.
    pub(super) fn plan_agg(
        &self,
        input: &LogicalPlan,
        group_by: Option<&str>,
        aggs: &[AggSpec],
        hints: PlanHints,
    ) -> Result<PhysicalPlan, PlanError> {
        let db = self.db;
        let (table_name, filter, raw_edges) = extract_join_tree(input)?;
        if let (Some(g), Some(first)) = (group_by, raw_edges.first()) {
            // The interpreter oracle draws the same line.
            if raw_edges.len() > 1 || !first.children.is_empty() {
                return Err(PlanError::Unsupported(format!(
                    "group by {g} over a multi-way join"
                )));
            }
            if g != first.fk_col {
                return Err(PlanError::Unsupported(format!(
                    "group by {g} over a semijoin (only the FK column is supported)"
                )));
            }
        }
        let table = db.table(&table_name)?;
        if let Some(f) = &filter {
            f.validate(table)?;
        }
        for a in aggs {
            a.expr.validate(table)?;
        }
        if let (Some(g), true) = (group_by, raw_edges.is_empty()) {
            if table.column(g).is_none() {
                return Err(PlanError::UnknownColumn {
                    table: table_name,
                    column: g.to_string(),
                });
            }
        }
        let mut q = AggQuery {
            table,
            filter: filter.as_ref(),
            group_by,
            aggs,
            has_minmax: aggs
                .iter()
                .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max)),
            hints,
            decisions: Vec::new(),
            cost_terms: Vec::new(),
        };
        let (edges, order_method, mode, estimates, group_table) = match raw_edges.is_empty() {
            true => self.decide_scan_agg(&mut q)?,
            false => self.decide_join_agg(&mut q, raw_edges)?,
        };
        let AggQuery {
            mut decisions,
            cost_terms,
            ..
        } = q;
        // Statistics shortcut: an unfiltered, ungrouped COUNT/MIN/MAX list
        // whose every answer is exact in a fresh catalog snapshot skips the
        // scan entirely (the shape is kept for EXPLAIN and verification).
        let shortcut = match (edges.is_empty(), &filter, group_by) {
            (true, None, None) => self.stats_shortcut(&table_name, aggs, &mut decisions),
            _ => None,
        };
        // A grouped join's key is the FK slice its edge is probed through,
        // so the program lowers none.
        let key = group_by.filter(|_| edges.is_empty());
        let grouped = group_by.is_some();
        let program = Arc::new(TileProgram::lower_agg(
            table,
            filter.as_ref(),
            key,
            aggs,
            grouped,
        )?);
        let bytes = edges.first().is_some_and(|e| e.bytes);
        let instance = Instance::lower(mode, grouped, bytes, &program, aggs);
        Ok(PhysicalPlan::new(
            Shape::Agg(AggShape {
                table: table_name,
                filter,
                edges,
                order_method,
                group: group_by.map(str::to_string),
                aggs: aggs.to_vec(),
                mode,
                instance,
                group_table,
                program,
            }),
            decisions,
            cost_terms,
            shortcut,
            estimates,
        ))
    }

    /// The scan aggregation's one decision (§ III-A, III-B): hybrid, value
    /// masking or key masking, by the cost model unless min/max force hybrid
    /// or the session pins a strategy. A grouped one decides its group table
    /// first, and the chooser prices the upserts on that table.
    fn decide_scan_agg(&self, q: &mut AggQuery<'_>) -> Result<Decided, PlanError> {
        let AggQuery {
            table,
            group_by,
            aggs,
            has_minmax,
            ..
        } = *q;
        let group_keys = group_by.map(|g| self.sampled_distinct(table, g));
        let group_table = match group_by.zip(group_keys) {
            Some((g, keys)) => self.group_table(q, g, None, keys)?,
            None => GroupTableRepr::Hash,
        };
        let drift = SigmaOverrides {
            drift: q.hints.selectivity,
            adaptive: false,
        };
        let filter_selectivity = self.selectivity(table, q.filter, drift, "σ", &mut q.decisions);
        let selectivity = filter_selectivity.unwrap_or(1.0);
        let (comp, n_cols) = agg_comp_cols(aggs, group_by);
        let profile = AggProfile {
            rows: table.len(),
            selectivity,
            comp,
            n_cols,
            group_keys,
            n_aggs: aggs.len(),
        };
        let choice = choose_agg_mt(
            self.params,
            &profile,
            self.threads,
            group_table.cost(aggs.len()),
        );
        let mut priced = vec![
            (AggStrategy::Hybrid, choice.cost_hybrid),
            (AggStrategy::ValueMasking, choice.cost_value_masking),
        ];
        priced.extend(
            choice
                .cost_key_masking
                .map(|km| (AggStrategy::KeyMasking, km)),
        );
        let decision = Decision {
            because: format!(
                "σ={selectivity:.2} → {} (hybrid={:.2e}, vm={:.2e}{})",
                choice.explanation,
                choice.cost_hybrid,
                choice.cost_value_masking,
                choice
                    .cost_key_masking
                    .map(|c| format!(", km={c:.2e}"))
                    .unwrap_or_default(),
            ),
            priced,
            cheapest: choice.strategy,
            forced: has_minmax.then_some((
                "hybrid forced: min/max require extra masking bookkeeping (§ III-A)",
                "min/max require hybrid",
            )),
            pin: self.strategies.agg,
        };
        let strategy = settle(decision, &mut q.decisions, &mut q.cost_terms)?;
        let estimates = Estimates {
            selectivity: filter_selectivity,
            result_rows: group_keys.unwrap_or(1),
            // min/max force hybrid without consulting the chooser.
            profile: if has_minmax {
                CostProfile::Unmodelled
            } else {
                CostProfile::Agg(profile)
            },
        };
        let mode = AggMode::By(strategy);
        Ok((
            Vec::new(),
            JoinOrderMethod::Dp,
            mode,
            estimates,
            group_table,
        ))
    }

    /// The group table of a grouped stage keyed by `g` — over the scanned
    /// table, or the FK of the join's one `edge` — holding an estimated
    /// `keys` groups: the key domain the catalog gives, then
    /// [`choose_group_table`].
    pub(super) fn group_table(
        &self,
        q: &mut AggQuery<'_>,
        g: &str,
        edge: Option<&JoinEdge>,
        keys: usize,
    ) -> Result<GroupTableRepr, PlanError> {
        let (db, table) = (self.db, q.table);
        let generation = table.generation();
        let (domain, domain_generation, fk_parent_rows) = match edge {
            // Dictionary codes are `0..cardinality`; any other column's
            // domain is the exact min/max of a fresh statistics snapshot.
            None => {
                let domain = match table.column(g) {
                    Some(ColumnData::Dict(d)) => Ok((0, d.cardinality() as i64 - 1)),
                    _ => self
                        .stats
                        .for_table(db, table.name())
                        .filter(|s| s.fresh_for(generation))
                        .and_then(|s| s.column(g).map(|c| (c.min, c.max)))
                        .ok_or("no fresh statistics give the key domain"),
                };
                (domain, generation, None)
            }
            // FK keys are parent positions — exactly `0..parent rows` when
            // registering the FK has validated every one of them.
            Some(edge) => {
                let parent_t = db.table(&edge.parent)?;
                let domain = db
                    .fk_parent_rows(table.name(), g, &edge.parent)
                    .map(|rows| (0, rows as i64 - 1))
                    .ok_or("no registered FK validates the key domain");
                (domain, parent_t.generation(), Some(parent_t.len()))
            }
        };
        Ok(choose_group_table(
            domain,
            (generation, domain_generation),
            fk_parent_rows,
            keys,
            q.aggs.len(),
            &mut q.decisions,
        ))
    }

    /// The one result row of an aggregate list answerable from catalog
    /// statistics alone: `COUNT` is the exact row count, `MIN`/`MAX` on a
    /// bare column are the exact column bounds. Any other aggregate — or a
    /// stale/missing snapshot — declines.
    fn stats_shortcut(
        &self,
        table: &str,
        aggs: &[AggSpec],
        decisions: &mut Vec<String>,
    ) -> Option<Vec<i64>> {
        let generation = self.db.generation(table)?;
        let s = self.stats.for_table(self.db, table)?;
        if !s.fresh_for(generation) {
            return None;
        }
        let mut row = Vec::with_capacity(aggs.len());
        for a in aggs {
            let v = match (a.func, &a.expr) {
                (AggFunc::Count, _) => s.rows as i64,
                // Zero-row semantics match execution: min/max are 0 when
                // nothing qualifies.
                (AggFunc::Min, Expr::Col(c)) => s.column(c)?.min,
                (AggFunc::Max, Expr::Col(c)) => s.column(c)?.max,
                _ => return None,
            };
            row.push(v);
        }
        decisions.push(format!(
            "answered from catalog statistics (stats mode {}, generation {generation}): scan skipped",
            self.stats.mode().name()
        ));
        Some(row)
    }
}

/// The group table of a grouped stage: the dense array when the catalog
/// gives the key `domain` exactly (`(min, max)`, read from tables at
/// `generations`; otherwise why it is unknown) and the array is no larger
/// than the hash table it replaces, sized as the executor sizes it
/// (`fk_parent_rows`) and grown to the planner's `keys` estimate; the hash
/// table otherwise. Derived from catalog facts only, and recorded as a
/// decision.
fn choose_group_table(
    domain: Result<(i64, i64), &'static str>,
    generations: (u64, u64),
    fk_parent_rows: Option<usize>,
    keys: usize,
    n_aggs: usize,
    decisions: &mut Vec<String>,
) -> GroupTableRepr {
    let dense = domain.and_then(|(min, max)| {
        let slots =
            DenseAggTable::slots_for(min, max).ok_or("the key domain is empty or too wide")?;
        Ok((min, max, DenseAggTable::bytes_for(slots, n_aggs)))
    });
    let hash_bytes = AggTable::grown_bytes(fk_parent_rows, keys, n_aggs);
    let (repr, line) = match dense {
        Ok((min, max, bytes)) if bytes <= hash_bytes => (
            GroupTableRepr::Dense {
                min,
                max,
                generations,
            },
            format!("dense [{min}..{max}], {bytes} B/worker"),
        ),
        Ok((min, max, bytes)) => (
            GroupTableRepr::Hash,
            format!(
                "hash (sparse domain: dense [{min}..{max}] is {bytes} B, \
                 over the {hash_bytes} B of a hash table for ~{keys} keys)"
            ),
        ),
        Err(why) => (GroupTableRepr::Hash, format!("hash ({why})")),
    };
    decisions.push(format!("group table: {line}"));
    repr
}

/// The `comp` estimate and distinct-column count of an aggregate list, as
/// the aggregation and groupjoin choosers' profiles take them.
pub(super) fn agg_comp_cols(aggs: &[AggSpec], group_by: Option<&str>) -> (f64, usize) {
    let mut cols: Vec<String> = Vec::new();
    for a in aggs {
        for c in a.expr.columns() {
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
    }
    let comp: f64 = aggs.iter().map(|a| a.expr.comp_cycles() + 0.5).sum();
    (comp, cols.len() + group_by.map(|_| 1).unwrap_or(0))
}
