//! `EXPLAIN`: the structured report of one physical plan — what the planner
//! chose, on what evidence, and (after `EXPLAIN ANALYZE`) how the run
//! compared. See [`Explain`].

use std::fmt;
use std::sync::Arc;

use crate::catalog::Database;
use crate::engine::{Engine, EngineInner, Mode};
use crate::error::PlanError;
use crate::logical::LogicalPlan;
use crate::metrics::{OpMetrics, QueryMetrics};
use crate::physical::{AggMode, CostProfile, JoinEdge, PhysicalPlan, Shape};
use crate::session::QueryOptions;
use swole_cost::choose::{choose_agg_mt, choose_groupjoin_mt};
use swole_cost::{join_order_cost, observed, AggProfile, CostParams, GroupJoinProfile};
use swole_verify::VerifyLevel;

/// One edge of a multi-way join as `EXPLAIN` renders it: the build-side
/// table, the FK that reaches it, nesting depth (0 = direct fact edge),
/// the membership structure, and estimated vs observed cardinality.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdgeExplain {
    /// Build-side (parent) table of the edge.
    pub parent: String,
    /// FK column on the probe side pointing into `parent`.
    pub fk_col: String,
    /// Nesting depth: 0 for direct fact edges, 1+ for chain edges that
    /// restrict a parent.
    pub depth: usize,
    /// Membership structure built for the edge (`hash`,
    /// `positional-bitmap` or `positional-bytes`).
    pub build_side: String,
    /// Estimated rows surviving the edge's membership test.
    pub est_rows: u64,
    /// Rows actually surviving the edge in the last `EXPLAIN ANALYZE` run;
    /// `None` from plain `EXPLAIN`.
    pub observed_rows: Option<u64>,
}

/// A structured `EXPLAIN`: what shape the planner picked, which access
/// strategy drives the loop body, the parallelism degree, and the
/// cost-model evidence. `Display` renders the classic indented text.
#[derive(Debug, Clone)]
pub struct Explain {
    /// One-line description of the physical shape (operators and tables).
    pub shape: String,
    /// Short name of the chosen access strategy.
    pub strategy: String,
    /// Worker threads execution will use.
    pub threads: usize,
    /// Rows per parallel work unit (a whole number of tiles).
    pub morsel_rows: usize,
    /// Where the next execution's plan would come from: `Some("cached")`
    /// when the session's plan cache holds a valid entry for this query,
    /// `Some("fresh")` when it would plan from scratch. `None` from
    /// contexts that bypass the cache.
    pub plan_source: Option<String>,
    /// Named cost-model terms (cycles) behind the decision.
    pub cost_terms: Vec<(String, f64)>,
    /// The planner's decision trail, one line each.
    pub decisions: Vec<String>,
    /// Runtime outcome of the engine's most recent [`crate::Engine::query`],
    /// when that query was this statement: completion, partial progress at
    /// cancellation/deadline, or a recorded fallback to the data-centric
    /// interpreter. Empty before any query and after another statement ran.
    pub runtime: Vec<String>,
    /// Per-operator execution metrics — populated by
    /// [`crate::Engine::explain_analyze`], `None` from plain [`crate::Engine::explain`].
    pub analyze: Option<QueryMetrics>,
    /// Static-verification pass summary — populated by
    /// [`crate::Engine::explain_verify`], empty from plain [`crate::Engine::explain`].
    pub verification: Vec<String>,
    /// The loop of every stage as the paper's C-like code, one line each —
    /// populated by [`crate::Engine::explain_code`], empty from plain
    /// [`crate::Engine::explain`].
    pub code: Vec<String>,
    /// How a multi-way join's probe order was determined (`dp`, `greedy`,
    /// or `pinned`); `None` for other shapes.
    pub join_order: Option<String>,
    /// The multi-way join tree, one entry per edge in probe order (nested
    /// chain edges follow their parent, indented by `depth`). Empty for
    /// other shapes.
    pub join_tree: Vec<JoinEdgeExplain>,
}

/// The runtime report of the most recent statement, under its plan's
/// fingerprint: what went wrong, line by line, and for a primary run that
/// succeeded, its figures — kept as values, rendered only when an `EXPLAIN`
/// asks.
#[derive(Default)]
pub(crate) struct LastRun {
    pub(crate) fingerprint: Option<u64>,
    pub(crate) lines: Vec<String>,
    pub(crate) ok: Option<RunOk>,
}

/// A primary run that succeeded: the plan it ran, morsels done of total,
/// and the bytes its gauge was charged.
pub(crate) struct RunOk {
    pub(crate) plan: Arc<PhysicalPlan>,
    pub(crate) done: usize,
    pub(crate) total: usize,
    pub(crate) charged: usize,
}

impl LastRun {
    /// The report's lines, if the statement under `fingerprint` ran last.
    pub(crate) fn lines_of(&self, fingerprint: u64) -> Vec<String> {
        if self.fingerprint != Some(fingerprint) {
            return Vec::new();
        }
        let ok = self.ok.as_ref().map(|ok| {
            let (strategy, done, total) = (&ok.plan.strategy, ok.done, ok.total);
            format!(
                "{strategy}: ok ({done}/{total} morsels, {} B charged)",
                ok.charged
            )
        });
        self.lines.iter().cloned().chain(ok).collect()
    }
}

/// The EXPLAIN doors: each stops after the plan phase in its next mode —
/// the plan the next execution would run — or, for `EXPLAIN VERIFY` and
/// `EXPLAIN CODE`, after certifying it; `EXPLAIN ANALYZE` runs every phase.
impl Engine {
    /// EXPLAIN: the structured decision report of the plan the next
    /// execution would run — the cached plan when that execution would hit
    /// the cache (`plan: cached`), otherwise the plan its miss would make,
    /// a drift re-plan's observed selectivity included (`plan: fresh`).
    pub fn explain(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        self.explain_next(plan, None)
    }

    /// EXPLAIN ANALYZE: execute the query once at (at least)
    /// [`crate::MetricsLevel::Timings`] and return the decision report of the plan
    /// that ran — after a drift re-plan, the re-planned one — with the
    /// `analyze` section populated from the run: per-operator access
    /// counters, hash-table behaviour, wall times, and the cost model's
    /// prediction re-scored against what execution observed.
    pub fn explain_analyze(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        self.explain_analyze_with(plan, &QueryOptions::default())
    }

    /// [`Engine::explain_analyze`] with per-call option overrides.
    pub fn explain_analyze_with(
        &self,
        plan: &LogicalPlan,
        opts: &QueryOptions,
    ) -> Result<Explain, PlanError> {
        self.root().explain_analyze_with(plan, opts)
    }

    /// EXPLAIN VERIFY: the decision report of [`Engine::explain`] — of the
    /// plan the next execution would run — with the `verification` section
    /// populated by a [`VerifyLevel::Full`] pass over that plan (one summary
    /// line per pass) followed by its admission-certificate bound lines
    /// (peak memory, and a per-operator bound breakdown).
    pub fn explain_verify(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        self.explain_next(plan, Some(VerifyLevel::Full))
    }

    /// EXPLAIN CODE: the decision report of [`Engine::explain`] — of the
    /// plan the next execution would run — with the `code` section holding
    /// each stage's loop as the paper's C-like code, printed from the tile
    /// program, the instance and the join edges the executor dispatches on,
    /// its sums in the mode the plan's certificate picks.
    pub fn explain_code(&self, plan: &LogicalPlan) -> Result<Explain, PlanError> {
        self.explain_next(plan, Some(VerifyLevel::Off))
    }

    /// The report of the plan the next execution would run; certified at
    /// `verify` for `EXPLAIN VERIFY` (`Full`) and `EXPLAIN CODE` (`Off`).
    fn explain_next(
        &self,
        plan: &LogicalPlan,
        verify: Option<VerifyLevel>,
    ) -> Result<Explain, PlanError> {
        let db = self.inner.read_db();
        let (physical, cached) = self.inner.plan_next(&db, plan, Mode::Next)?;
        let mut ex = self
            .inner
            .explain_planned(&db, plan, &physical, cached, None);
        if let Some(level) = verify {
            let certified = self.inner.certify(&db, &physical, level)?;
            let cert = certified.certificate(Some(plan));
            if level == VerifyLevel::Off {
                ex.code = crate::code::render(&physical, cert.overflow_proof);
            } else {
                ex.verification = certified.report.lines;
                ex.verification.extend(cert.lines);
            }
        }
        Ok(ex)
    }
}

impl EngineInner {
    /// The EXPLAIN report of `physical`, planned for `plan`; `cached` says
    /// whether the next execution would take it from the cache, `analyze`
    /// holds the metrics of the run that executed it. The engine keeps one
    /// run report, shown only if this statement was the last to run.
    pub(crate) fn explain_planned(
        &self,
        db: &Database,
        plan: &LogicalPlan,
        physical: &PhysicalPlan,
        cached: bool,
        analyze: Option<QueryMetrics>,
    ) -> Explain {
        let runtime = match self.last_run.lock() {
            Ok(last) => last.lines_of(self.fingerprint(plan)),
            Err(_) => Vec::new(),
        };
        let (join_order, join_tree) = join_tree(db, physical);
        let mut ex = Explain {
            shape: physical.describe(),
            strategy: physical.strategy.clone(),
            threads: self.threads,
            morsel_rows: self.morsel_rows,
            plan_source: Some(if cached { "cached" } else { "fresh" }.to_string()),
            cost_terms: physical.cost_terms.clone(),
            decisions: physical.decisions.clone(),
            runtime,
            analyze,
            join_order,
            join_tree,
            verification: Vec::new(),
            code: Vec::new(),
        };
        ex.fill_join_observed();
        ex
    }
}

impl Explain {
    /// Fill `observed_rows` on the join tree from an `EXPLAIN ANALYZE`
    /// metrics snapshot: each probe-side edge reports an operator named
    /// `multijoin-probe(<parent>)` whose `rows_out` is the edge's actual
    /// surviving cardinality.
    fn fill_join_observed(&mut self) {
        let Some(m) = &self.analyze else { return };
        for e in &mut self.join_tree {
            // Nested chain edges have no probe op — their observed
            // cardinality is the qualifying parent rows of their build op.
            let name = if e.depth == 0 {
                JoinEdge::probe_op(&e.parent)
            } else {
                JoinEdge::build_op(&e.parent)
            };
            if let Some(op) = m.operators.iter().find(|o| o.name == name) {
                e.observed_rows = Some(op.access.rows_out);
            }
        }
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.shape)?;
        write!(f, "\n  strategy: {}", self.strategy)?;
        write!(
            f,
            "\n  parallelism: {} thread(s), {}-row morsels",
            self.threads, self.morsel_rows
        )?;
        if let Some(source) = &self.plan_source {
            write!(f, "\n  plan: {source}")?;
        }
        for (name, cycles) in &self.cost_terms {
            write!(f, "\n  cost[{name}] = {cycles:.3e} cyc")?;
        }
        for d in &self.decisions {
            write!(f, "\n  -> {d}")?;
        }
        for r in &self.runtime {
            write!(f, "\n  ~ last run: {r}")?;
        }
        if let Some(order) = &self.join_order {
            write!(f, "\n  join order: {order}")?;
        }
        for e in &self.join_tree {
            write!(
                f,
                "\n  {}edge {} -> {} [{}] est {} rows",
                "  ".repeat(e.depth),
                e.fk_col,
                e.parent,
                e.build_side,
                e.est_rows
            )?;
            if let Some(obs) = e.observed_rows {
                write!(f, ", observed {obs} rows")?;
            }
        }
        if let Some(a) = &self.analyze {
            write!(f, "\n  {a}")?;
        }
        for v in &self.verification {
            write!(f, "\n  verify: {v}")?;
        }
        if !self.code.is_empty() {
            write!(f, "\n  code:")?;
        }
        for line in &self.code {
            write!(f, "\n    {line}")?;
        }
        Ok(())
    }
}

/// Structured join-tree rendering for `EXPLAIN`: the probe order plus
/// one entry per edge with its estimated cardinality. Direct edges
/// estimate surviving *fact* rows cumulatively along the probe order;
/// nested (chain) edges estimate their parent table's qualifying rows.
fn join_tree(db: &Database, plan: &PhysicalPlan) -> (Option<String>, Vec<JoinEdgeExplain>) {
    let Some(join) = plan.join() else {
        return (None, Vec::new());
    };
    let edges = &join.edges;
    let order = format!(
        "{} ({})",
        edges
            .iter()
            .map(|e| e.parent.as_str())
            .collect::<Vec<_>>()
            .join(" -> "),
        join.order_method.name()
    );
    // Fact rows passing the fact's own filter, as the planner priced it.
    let mut alive = match &plan.estimates.profile {
        CostProfile::Join(p) => p.fact_rows as f64 * p.fact_selectivity,
        CostProfile::GroupJoin(p) => p.r_rows as f64 * p.r_selectivity,
        CostProfile::Agg(_) | CostProfile::Unmodelled => 0.0,
    };
    let mut tree = Vec::new();
    for e in edges {
        alive *= e.est_selectivity;
        tree.push(JoinEdgeExplain {
            parent: e.parent.clone(),
            fk_col: e.fk_col.clone(),
            depth: 0,
            build_side: e.structure().to_string(),
            est_rows: alive.round() as u64,
            observed_rows: None,
        });
        explain_nested_edges(db, &e.children, 1, &mut tree);
    }
    (Some(order), tree)
}

/// Re-score the chosen strategy's cost formula with observed inputs:
/// the profile the planner priced the plan with, its estimated fields
/// overwritten by the counter-derived selectivities and the merged hash
/// table's actual key count. Returns `(predicted, observed)` cycles when
/// the plan has a modelled strategy decision (scan-aggregations,
/// groupjoins and the join order; the semijoin chooser keys on build
/// cardinality, which the planner knows exactly, so there is nothing to
/// validate).
pub(crate) fn cost_comparison(
    params: &CostParams,
    threads: usize,
    plan: &PhysicalPlan,
    ops: &[OpMetrics],
) -> (Option<f64>, Option<f64>) {
    let edge_probe = |parent: &str| {
        let name = JoinEdge::probe_op(parent);
        ops.iter()
            .find(|o| o.name == name)
            .filter(|o| o.access.rows_in > 0)
    };
    let Shape::Agg(shape) = &plan.shape else {
        return (None, None);
    };
    match (&plan.estimates.profile, shape.mode) {
        (CostProfile::Agg(profile), AggMode::By(strategy)) => {
            // Priced on the table the planner priced, as the planner did.
            let table = shape.group_table.cost(shape.aggs.len());
            let score = |p: &AggProfile| {
                observed::agg_cost_for(&choose_agg_mt(params, p, threads, table), strategy)
            };
            let predicted = score(profile);
            let Some(op) = ops.first() else {
                return (predicted, None);
            };
            let mut seen = *profile;
            seen.selectivity = op.observed_selectivity().unwrap_or(seen.selectivity);
            if seen.group_keys.is_some() {
                seen.group_keys = Some(op.ht.inserts as usize);
            }
            (predicted, score(&seen))
        }
        (CostProfile::GroupJoin(profile), AggMode::Join(strategy)) => {
            let score = |p: &GroupJoinProfile| {
                observed::groupjoin_cost_for(&choose_groupjoin_mt(params, p, threads), strategy)
            };
            let predicted = score(profile);
            // The first operator is the one edge's build.
            let Some(build_op) = ops.first() else {
                return (Some(predicted), None);
            };
            let mut seen = *profile;
            seen.s_selectivity = build_op
                .observed_selectivity()
                .unwrap_or(seen.s_selectivity);
            seen.join_match_prob = seen.s_selectivity;
            if let Some(op) = shape.edges.first().and_then(|e| edge_probe(&e.parent)) {
                seen.r_selectivity = op.access.rows_in as f64 / seen.r_rows.max(1) as f64;
            }
            (Some(predicted), Some(score(&seen)))
        }
        (CostProfile::Join(profile), _) => {
            let order: Vec<usize> = (0..profile.edges.len()).collect();
            let predicted = join_order_cost(params, profile, &order);
            // Re-score the same order with the per-edge selectivities the
            // probe actually observed.
            let mut seen = profile.clone();
            let mut any = false;
            for (i, e) in seen.edges.iter_mut().enumerate() {
                let Some(op) = edge_probe(&e.parent) else {
                    continue;
                };
                e.selectivity = op.access.rows_out as f64 / op.access.rows_in as f64;
                if i == 0 && seen.fact_rows > 0 {
                    seen.fact_selectivity = op.access.rows_in as f64 / seen.fact_rows as f64;
                }
                any = true;
            }
            if !any {
                return (Some(predicted), None);
            }
            (
                Some(predicted),
                Some(join_order_cost(params, &seen, &order)),
            )
        }
        _ => (None, None),
    }
}

/// Flatten nested (chain) join edges into `JoinEdgeExplain` entries; a
/// nested edge's estimated cardinality is its parent table's qualifying
/// rows, matching what its `multijoin-build` op observes.
fn explain_nested_edges(
    db: &Database,
    children: &[JoinEdge],
    depth: usize,
    out: &mut Vec<JoinEdgeExplain>,
) {
    for c in children {
        let parent_rows = db.table(&c.parent).map(|t| t.len()).unwrap_or(0) as f64;
        out.push(JoinEdgeExplain {
            parent: c.parent.clone(),
            fk_col: c.fk_col.clone(),
            depth,
            build_side: c.structure().to_string(),
            est_rows: (parent_rows * c.est_selectivity).round() as u64,
            observed_rows: None,
        });
        explain_nested_edges(db, &c.children, depth + 1, out);
    }
}
