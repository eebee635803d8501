//! The join arm: an aggregation's input as a join graph, and the decisions
//! of an aggregation over FK join edges — per-edge selectivity and
//! membership structure, probe order, and the sink.

use std::sync::Arc;

use super::agg::{agg_comp_cols, AggQuery, Decided};
use super::{settle, Decision, Planner, SigmaOverrides};
use crate::error::PlanError;
use crate::exec::FkSource;
use crate::expr::Expr;
use crate::logical::LogicalPlan;
use crate::physical::{byte_map_fits, AggMode, CostProfile, Estimates, GroupTableRepr, JoinEdge};
use crate::tile::TileProgram;
use swole_bitmap::PositionalBitmap;
use swole_cost::choose::{choose_groupjoin_mt, choose_semijoin};
use swole_cost::{
    choose_join_order, join_order_cost, BitmapBuild, GroupJoinProfile, GroupJoinStrategy,
    JoinEdgeProfile, JoinGraphProfile, JoinOrderMethod, SemiJoinProfile, SemiJoinStrategy,
};
use swole_storage::Table;

/// One edge of a join graph as extracted from the logical plan, before
/// selectivity estimation and strategy choice.
pub(super) struct RawEdge {
    pub parent: String,
    pub parent_filter: Option<Expr>,
    pub fk_col: String,
    pub children: Vec<RawEdge>,
}

/// Decompose a pipeline's input — a nested semijoin tree — into its join
/// graph: the base table, the merged filter over the base's own columns
/// (filters below, between and above the semijoins alike), and the edges
/// hanging off the base (each recursively carrying its own chain edges).
/// Nodes other than scan/filter/semijoin are unsupported.
pub(super) fn extract_join_tree(
    plan: &LogicalPlan,
) -> Result<(String, Option<Expr>, Vec<RawEdge>), PlanError> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let (table, filter, edges) = extract_join_tree(input)?;
            let merged = match filter {
                Some(f) => f.and(predicate.clone()),
                None => predicate.clone(),
            };
            Ok((table, Some(merged), edges))
        }
        LogicalPlan::Scan { table } => Ok((table.clone(), None, Vec::new())),
        LogicalPlan::SemiJoin {
            input,
            build,
            fk_col,
        } => {
            let (table, filter, mut edges) = extract_join_tree(input)?;
            let (parent, parent_filter, children) = extract_join_tree(build)?;
            edges.push(RawEdge {
                parent,
                parent_filter,
                fk_col: fk_col.clone(),
                children,
            });
            Ok((table, filter, edges))
        }
        other => Err(PlanError::Unsupported(format!(
            "aggregation or window over {other:?}"
        ))),
    }
}

impl Planner<'_> {
    /// Cost-model profile of a multi-way join's direct edges, with the
    /// shape's estimated selectivities and membership-structure footprints.
    fn multijoin_profile(
        &self,
        fact: &Table,
        fact_selectivity: f64,
        edges: &[JoinEdge],
    ) -> JoinGraphProfile {
        let db = self.db;
        let edges_p = edges
            .iter()
            .map(|e| {
                let parent_rows = db.table(&e.parent).map(|t| t.len()).unwrap_or(0);
                let has_fk_index = db
                    .fk_parent_rows(fact.name(), &e.fk_col, &e.parent)
                    .is_some();
                let build_bytes = match e.strategy {
                    SemiJoinStrategy::Hash => {
                        (((parent_rows as f64 * e.est_selectivity).ceil() as usize).max(1)) * 16
                    }
                    SemiJoinStrategy::PositionalBitmap(_) => {
                        PositionalBitmap::bytes_for(parent_rows)
                    }
                };
                JoinEdgeProfile {
                    parent: e.parent.clone(),
                    selectivity: e.est_selectivity,
                    has_fk_index,
                    build_bytes,
                }
            })
            .collect();
        JoinGraphProfile {
            fact_rows: fact.len(),
            fact_selectivity,
            edges: edges_p,
        }
    }

    /// The decisions of an FK join aggregation over one or more edges:
    /// estimate per-edge selectivities from statistics and sampling, choose
    /// the probe order (exact subset DP up to [`swole_cost::JOIN_DP_LIMIT`]
    /// direct edges, greedy rank beyond, session pin override), pick each
    /// edge's membership structure with the semijoin cost model, and decide
    /// the sink: a scalar aggregation (masked probe or not), or — grouped by
    /// the FK of the join's one edge — the groupjoin or its
    /// eager-aggregation rewrite (§ III-E), then its group table (the
    /// groupjoin chooser prices tables of its own).
    pub(super) fn decide_join_agg(
        &self,
        q: &mut AggQuery<'_>,
        raw_edges: Vec<RawEdge>,
    ) -> Result<Decided, PlanError> {
        let (fact_t, fact, aggs) = (q.table, q.table.name(), q.aggs);
        let single_edge = matches!(&raw_edges[..], [e] if e.children.is_empty());
        // The plan cache's drift feedback is the observed selectivity of the
        // first build; only a one-edge join says which edge that was.
        let drift = q.hints.selectivity.filter(|_| single_edge);
        let mut edges = Vec::with_capacity(raw_edges.len());
        for e in raw_edges {
            edges.push(self.lower_join_edge(fact, e, drift, false, &mut q.decisions)?);
        }
        // The fact's own filter is always priced at the sample's estimate.
        let sampled = SigmaOverrides::default();
        let fact_sel = self
            .selectivity(fact_t, q.filter, sampled, "σ_fact", &mut q.decisions)
            .unwrap_or(1.0);
        let profile = self.multijoin_profile(fact_t, fact_sel, &edges);
        let choice = choose_join_order(self.params, &profile);
        let (order_idx, method) = match &self.strategies.join_order {
            Some(pin) => {
                let mut idx = Vec::with_capacity(pin.len());
                for name in pin {
                    let Some(i) = edges.iter().position(|e| &e.parent == name) else {
                        return Err(PlanError::Unsupported(format!(
                            "join-order pin names {name}, which is not a build side of this query"
                        )));
                    };
                    if idx.contains(&i) {
                        return Err(PlanError::Unsupported(format!(
                            "join-order pin names {name} twice"
                        )));
                    }
                    idx.push(i);
                }
                if idx.len() != edges.len() {
                    return Err(PlanError::Unsupported(format!(
                        "join-order pin must name every build side ({} of {} named)",
                        idx.len(),
                        edges.len()
                    )));
                }
                q.decisions.push(format!(
                    "join order pinned by the session: {}",
                    pin.join(" -> ")
                ));
                (idx, JoinOrderMethod::Pinned)
            }
            None => (choice.order.clone(), choice.method),
        };
        let chosen_cost = join_order_cost(self.params, &profile, &order_idx);
        q.decisions.push(format!(
            "σ_fact={fact_sel:.2}, {} → probe order {} ({})",
            choice.explanation,
            order_idx
                .iter()
                .map(|&i| edges[i].parent.as_str())
                .collect::<Vec<_>>()
                .join(" -> "),
            method.name(),
        ));
        q.cost_terms.extend([
            ("join.order".to_string(), chosen_cost),
            ("join.order.best".to_string(), choice.cost),
            ("join.order.worst".to_string(), choice.worst_cost),
        ]);
        let edges: Vec<JoinEdge> = order_idx.iter().map(|&i| edges[i].clone()).collect();
        // The first operator of a join is the first edge's build. A
        // multi-edge re-plan cannot say which edge a drift hint observed;
        // recording it as the estimate keeps the cache from invalidating
        // the re-plan over the same measurement again.
        let selectivity = q
            .hints
            .selectivity
            .or_else(|| edges.first().map(|e| e.est_selectivity));
        let Some(g) = q.group_by else {
            // A masked probe ANDs the bitmap bit into the filter mask and
            // aggregates every lane, which value masking has no min/max sink
            // for. Same VM-model threshold as the chooser's build decision: it
            // wins unless the fact predicate is very selective.
            let maskable = single_edge
                && matches!(edges[0].strategy, SemiJoinStrategy::PositionalBitmap(_))
                && !q.has_minmax;
            let masked = maskable && fact_sel >= 0.125;
            if maskable {
                q.decisions.push(format!(
                    "σ_fact={fact_sel:.2} → {} probe",
                    if masked { "masked" } else { "selection-vector" }
                ));
            }
            let estimates = Estimates {
                selectivity,
                result_rows: 1,
                profile: CostProfile::Join(JoinGraphProfile {
                    edges: order_idx
                        .iter()
                        .map(|&i| profile.edges[i].clone())
                        .collect(),
                    ..profile
                }),
            };
            let mode = AggMode::Probe { masked };
            return Ok((edges, method, mode, estimates, GroupTableRepr::Hash));
        };
        let edge = &edges[0];
        let parent_rows = self.db.table(&edge.parent)?.len();
        let (comp, _) = agg_comp_cols(aggs, Some(g));
        let gj_profile = GroupJoinProfile {
            r_rows: fact_t.len(),
            r_selectivity: fact_sel,
            s_rows: parent_rows,
            s_selectivity: edge.est_selectivity,
            join_match_prob: edge.est_selectivity,
            group_keys: parent_rows,
            comp,
            n_aggs: aggs.len(),
        };
        // Eager aggregation upserts every probe lane unmasked: it has
        // no place for a probe-side filter or a min/max state.
        let forced = q.has_minmax || q.filter.is_some();
        let strategy =
            self.choose_group_sink(&gj_profile, forced, &mut q.decisions, &mut q.cost_terms)?;
        let estimates = Estimates {
            selectivity,
            result_rows: parent_rows,
            profile: CostProfile::GroupJoin(gj_profile),
        };
        let group_table = self.group_table(q, g, Some(&edges[0]), parent_rows)?;
        let mode = AggMode::Join(strategy);
        Ok((edges, method, mode, estimates, group_table))
    }

    /// The grouped sink's one decision: the groupjoin or its eager-aggregation
    /// rewrite (§ III-E), by the cost model unless the query forces the
    /// groupjoin (`forced`) or the session pins a strategy.
    fn choose_group_sink(
        &self,
        profile: &GroupJoinProfile,
        forced: bool,
        decisions: &mut Vec<String>,
        cost_terms: &mut Vec<(String, f64)>,
    ) -> Result<GroupJoinStrategy, PlanError> {
        let choice = choose_groupjoin_mt(self.params, profile, self.threads);
        let decision = Decision {
            priced: vec![
                (GroupJoinStrategy::GroupJoin, choice.cost_groupjoin),
                (GroupJoinStrategy::EagerAggregation, choice.cost_eager),
            ],
            cheapest: choice.strategy,
            because: format!(
                "σ_S={:.2} → {} (groupjoin={:.2e}, eager={:.2e})",
                profile.s_selectivity, choice.explanation, choice.cost_groupjoin, choice.cost_eager,
            ),
            forced: forced.then_some((
                "groupjoin forced: min/max and probe-side filters need the selection vector",
                "min/max and probe-side filters require groupjoin",
            )),
            pin: self.strategies.groupjoin,
        };
        settle(decision, decisions, cost_terms)
    }

    /// Lower one raw join edge: validate the FK path and the parent
    /// filter, estimate the fraction of probe rows surviving the edge (own
    /// filter × nested children; `drift`, the selectivity the plan cache
    /// observed for this edge's build, overrides the estimate, then adaptive
    /// statistics when available), and choose the membership structure — a
    /// packed bitmap for a `chain` edge, which restricts a parent, not the
    /// fact.
    fn lower_join_edge(
        &self,
        child: &str,
        e: RawEdge,
        drift: Option<f64>,
        chain: bool,
        decisions: &mut Vec<String>,
    ) -> Result<JoinEdge, PlanError> {
        let db = self.db;
        let parent_t = db.table(&e.parent)?;
        if let Some(f) = &e.parent_filter {
            f.validate(parent_t)?;
        }
        FkSource::resolve(db, child, &e.fk_col)?;
        let mut children = Vec::with_capacity(e.children.len());
        for c in e.children {
            children.push(self.lower_join_edge(&e.parent, c, None, true, decisions)?);
        }
        let observed = SigmaOverrides {
            drift,
            adaptive: true,
        };
        let subject = format!("σ({})", e.parent);
        let own = self
            .selectivity(
                parent_t,
                e.parent_filter.as_ref(),
                observed,
                &subject,
                decisions,
            )
            .unwrap_or(1.0);
        let est_selectivity = children
            .iter()
            .fold(own, |s, c| s * c.est_selectivity)
            .clamp(0.0, 1.0);
        let has_fk_index = db.fk_parent_rows(child, &e.fk_col, &e.parent).is_some();
        let choice = choose_semijoin(
            self.params,
            &SemiJoinProfile {
                build_rows: parent_t.len(),
                build_selectivity: est_selectivity,
                has_fk_index,
            },
        );
        let strategy = if chain {
            // A chain edge's bit is ANDed into its child's tile masks, which
            // only a packed bitmap serves; the session pins direct edges.
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional)
        } else if let Some((_, pin)) = self
            .strategies
            .build_sides
            .iter()
            .find(|(t, _)| t == &e.parent)
        {
            decisions.push(format!("build side {} pinned by the session", e.parent));
            *pin
        } else if let Some(pin) = self.strategies.semijoin {
            decisions.push("semijoin strategy pinned by the session".to_string());
            pin
        } else {
            choice.strategy
        };
        decisions.push(format!(
            "edge {child}.{} -> {} σ={est_selectivity:.2}: {}",
            e.fk_col, e.parent, choice.explanation
        ));
        let parent_program = Arc::new(TileProgram::lower_build(
            parent_t,
            e.parent_filter.as_ref(),
        )?);
        let positional = matches!(strategy, SemiJoinStrategy::PositionalBitmap(_));
        Ok(JoinEdge {
            parent: e.parent,
            parent_filter: e.parent_filter,
            parent_program,
            fk_col: e.fk_col,
            strategy,
            bytes: positional && byte_map_fits(parent_t.len(), self.params),
            children,
            est_selectivity,
        })
    }
}
