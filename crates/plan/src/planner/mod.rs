//! The planner: a logical plan in, a [`PhysicalPlan`] with its decision
//! trail out.
//!
//! A [`Planner`] is a *catalog view* — everything a plan is a function of,
//! borrowed for the length of one planning call: the tables and FKs
//! registered in a [`Database`] (behind whatever guard the caller holds), the
//! statistics snapshots kept for them, the cost parameters, the thread count
//! the choosers price for, and the session's strategy pins. It borrows and
//! owns nothing, so it costs nothing to make, cannot outlive the database
//! guard it was made under, and needs no engine: the unit tests below build
//! one over a bare `Database`.
//!
//! Planning has three arms — the scan aggregation ([`agg`]), the FK join
//! aggregation ([`join`]) and the window pipeline ([`window`]) — and two
//! steps they share: [`Planner::selectivity`], the one place a filter's σ
//! comes from, and [`settle`], the one place a priced strategy decision meets
//! what the query forces and what the session pins.

use crate::builder::StrategyOverrides;
use crate::catalog::Database;
use crate::error::PlanError;
use crate::expr::Expr;
use crate::logical::LogicalPlan;
use crate::physical::{PhysicalPlan, PostOp};
use crate::stats::{self, StatsCatalog, StatsMode};
use swole_cost::choose::sort_cost;
use swole_cost::{AggStrategy, CostParams, GroupJoinStrategy, WindowStrategy};
use swole_storage::Table;

mod agg;
mod join;
mod window;

/// Optional overrides threaded into planning. Produced when drift
/// invalidation re-plans a statement: the observed selectivity replaces the
/// sample estimate, so the re-plan reflects measurement instead of
/// repeating the mis-estimate (and the cache cannot thrash between the two).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PlanHints {
    /// Overrides the sampled selectivity of the plan's primary filter (the
    /// scan filter, or the build-side filter of a join shape).
    pub selectivity: Option<f64>,
}

/// The catalog view one planning call reads (see the module docs).
pub(crate) struct Planner<'a> {
    pub db: &'a Database,
    pub stats: &'a StatsCatalog,
    pub params: &'a CostParams,
    /// Worker threads the plan will run at; the choosers are thread-aware.
    pub threads: usize,
    pub strategies: &'a StrategyOverrides,
}

/// Which measurements may stand in for the sample's estimate of a filter's σ.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SigmaOverrides {
    /// What the plan cache observed for this filter, when this is the
    /// re-plan after drift invalidated the entry.
    pub drift: Option<f64>,
    /// Take what runs observed over the table, when the session keeps
    /// adaptive statistics.
    pub adaptive: bool,
}

/// A family of alternative strategies, as [`settle`] prices and words it.
pub(crate) trait Strategy: Copy + PartialEq {
    /// Subject of the trail's line for a session pin:
    /// `{PIN_SUBJECT} pinned[ to {name}] by the session`.
    const PIN_SUBJECT: &'static str;
    /// Whether that line names the pinned strategy.
    const PIN_NAMES_IT: bool;
    /// What follows the strategy's name in `cannot pin {name}{PIN_NOUN}: …`.
    const PIN_NOUN: &'static str;
    fn name(self) -> &'static str;
    fn cost_term(self) -> &'static str;
}

macro_rules! strategy_family {
    ($family:ty, $subject:literal, $names_it:literal, $noun:literal) => {
        impl Strategy for $family {
            const PIN_SUBJECT: &'static str = $subject;
            const PIN_NAMES_IT: bool = $names_it;
            const PIN_NOUN: &'static str = $noun;
            fn name(self) -> &'static str {
                <$family>::name(self)
            }
            fn cost_term(self) -> &'static str {
                <$family>::cost_term(self)
            }
        }
    };
}
strategy_family!(AggStrategy, "strategy", true, " aggregation");
strategy_family!(GroupJoinStrategy, "groupjoin strategy", false, "");
strategy_family!(WindowStrategy, "window strategy", true, "");

/// One strategy decision as its chooser priced it, before the query's and
/// the session's say.
pub(crate) struct Decision<S> {
    /// Every alternative the chooser priced, in the order their cost terms
    /// are recorded — the one a query can force first.
    pub priced: Vec<(S, f64)>,
    /// The chooser's pick, and the line that justifies it.
    pub cheapest: S,
    pub because: String,
    /// Set when the query admits only `priced[0]`: the line recording that,
    /// and what a conflicting pin is told the query requires.
    pub forced: Option<(&'static str, &'static str)>,
    /// The session's pin for this family.
    pub pin: Option<S>,
}

/// The decision step every modelled strategy choice goes through: record the
/// cost terms and the decision line, then let the query's forced strategy
/// override the chooser and the session's pin override both — a pin the query
/// cannot honour is the "cannot pin …" error.
pub(crate) fn settle<S: Strategy>(
    d: Decision<S>,
    decisions: &mut Vec<String>,
    cost_terms: &mut Vec<(String, f64)>,
) -> Result<S, PlanError> {
    // The forced path is still priced: the verifier cross-checks every
    // strategy against its cost term.
    let recorded = if d.forced.is_some() {
        1
    } else {
        d.priced.len()
    };
    for &(s, cycles) in &d.priced[..recorded] {
        cost_terms.push((s.cost_term().to_string(), cycles));
    }
    let chosen = match d.forced {
        Some((line, _)) => {
            decisions.push(line.to_string());
            d.priced[0].0
        }
        None => {
            decisions.push(d.because);
            d.cheapest
        }
    };
    let Some(pin) = d.pin else {
        return Ok(chosen);
    };
    if let Some((_, requires)) = d.forced.filter(|_| pin != chosen) {
        return Err(PlanError::Unsupported(format!(
            "cannot pin {}{}: {requires}",
            pin.name(),
            S::PIN_NOUN
        )));
    }
    let to = match S::PIN_NAMES_IT {
        true => format!(" to {}", pin.name()),
        false => String::new(),
    };
    decisions.push(format!("{} pinned{to} by the session", S::PIN_SUBJECT));
    Ok(pin)
}

impl Planner<'_> {
    /// Plan a logical query, making every Fig. 2 decision via the cost
    /// models.
    pub(crate) fn plan(
        &self,
        plan: &LogicalPlan,
        hints: PlanHints,
    ) -> Result<PhysicalPlan, PlanError> {
        // Peel result-level post-operators (ORDER BY / LIMIT) off the top;
        // they run over the materialized result of the core pipeline.
        let mut post = Vec::new();
        let mut core = plan;
        loop {
            match core {
                LogicalPlan::Limit { input, n } => {
                    post.push(PostOp::Limit { n: *n });
                    core = input;
                }
                LogicalPlan::OrderBy { input, keys } => {
                    if keys.is_empty() {
                        return Err(PlanError::Unsupported("empty ORDER BY key list".into()));
                    }
                    post.push(PostOp::Sort { keys: keys.clone() });
                    core = input;
                }
                _ => break,
            }
        }
        post.reverse(); // application order: innermost node applies first
        let mut physical = self.plan_core(core, hints)?;
        // ORDER BY keys must name output columns of the core pipeline.
        let out_cols = physical.shape.output_columns();
        for p in &post {
            match p {
                PostOp::Sort { keys } => {
                    for k in keys {
                        if !out_cols.contains(&k.column) {
                            return Err(PlanError::UnknownResultColumn(k.column.clone()));
                        }
                    }
                    let est_rows = physical.estimates.result_rows;
                    let cost = sort_cost(self.params, est_rows, keys.len());
                    physical.cost_terms.push(("sort.rows".to_string(), cost));
                    physical.decisions.push(format!(
                        "order by {} key(s) over ~{est_rows} result rows ({cost:.2e} cyc)",
                        keys.len()
                    ));
                }
                PostOp::Limit { n } => {
                    physical
                        .decisions
                        .push(format!("limit {n} (prefix truncation)"));
                    physical
                        .cost_terms
                        .push(("limit.rows".to_string(), *n as f64));
                }
            }
        }
        physical.post = post;
        Ok(physical)
    }

    /// Plan the core pipeline (everything under the post-operators).
    fn plan_core(&self, plan: &LogicalPlan, hints: PlanHints) -> Result<PhysicalPlan, PlanError> {
        match plan {
            LogicalPlan::Window { .. } => self.plan_window(plan, hints),
            LogicalPlan::Aggregate { aggs, .. } if aggs.is_empty() => {
                Err(PlanError::Unsupported("empty aggregate list".into()))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => self.plan_agg(input, group_by.as_deref(), aggs, hints),
            _ => Err(PlanError::Unsupported(
                "top-level node must be an aggregation or window".into(),
            )),
        }
    }

    /// σ of `filter` over `table` as the planner prices it — the one place
    /// it comes from. In precedence: what the plan cache observed for this
    /// very filter (`over.drift`), what runs observed over the table under
    /// adaptive statistics (`over.adaptive`), the sample's estimate. An
    /// override is recorded as a decision, naming the filter as `subject`
    /// (`σ` for the statement's own scan, `σ(S)` for a build side `S`).
    /// `None` without a filter.
    fn selectivity(
        &self,
        table: &Table,
        filter: Option<&Expr>,
        over: SigmaOverrides,
        subject: &str,
        decisions: &mut Vec<String>,
    ) -> Option<f64> {
        let filter = filter?;
        if let Some(observed) = over.drift {
            decisions.push(format!(
                "{subject} overridden to {observed:.4} (observed after drift)"
            ));
            return Some(observed);
        }
        let sampled = stats::estimate_selectivity(table, filter);
        let adaptive = (over.adaptive && self.stats.mode() == StatsMode::Adaptive)
            .then(|| {
                self.stats
                    .for_table(self.db, table.name())?
                    .observed_selectivity
            })
            .flatten();
        Some(match adaptive {
            Some(obs) => {
                decisions.push(format!(
                    "{subject} = {obs:.4} from adaptive statistics (sampled {sampled:.4})"
                ));
                obs
            }
            None => sampled,
        })
    }

    /// [`stats::estimate_distinct`] of `table.column` — a grouped stage's
    /// groups, a window's partitions — as the table's statistics snapshot
    /// holds it, sampled now only when statistics are off.
    fn sampled_distinct(&self, table: &Table, column: &str) -> usize {
        self.stats
            .for_table(self.db, table.name())
            .and_then(|s| s.column(column).map(|c| c.sampled_ndv))
            .unwrap_or_else(|| stats::estimate_distinct(table, column))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::logical::{AggSpec, FrameSpec, QueryBuilder, SortKey, WindowFnSpec};

    /// `R(a, fk → S)`, 4 000 rows, and `S(x)`, 200 rows of `x = row % 100`,
    /// with the FK registered.
    fn db() -> Database {
        use swole_storage::ColumnData;
        let mut db = Database::new();
        db.add_table(
            Table::new("R")
                .with_column("a", ColumnData::I32((0..4_000).map(|i| i % 10).collect()))
                .with_column(
                    "fk",
                    ColumnData::U32((0..4_000u32).map(|i| i * 7 % 200).collect()),
                ),
        );
        db.add_table(
            Table::new("S").with_column("x", ColumnData::I32((0..200).map(|i| i % 100).collect())),
        );
        db.add_fk("R", "fk", "S").expect("valid by construction");
        db
    }

    /// Plan `plan` over [`db`] under `pins` — no engine anywhere.
    fn plan_pinned(pins: StrategyOverrides, plan: &LogicalPlan) -> Result<PhysicalPlan, PlanError> {
        let db = db();
        let planner = Planner {
            db: &db,
            stats: &StatsCatalog::new(StatsMode::OnLoad, &db),
            params: &CostParams::default(),
            threads: 1,
            strategies: &pins,
        };
        planner.plan(plan, PlanHints::default())
    }

    /// Filtered, so that the statistics shortcut does not answer it.
    fn min_of_a() -> LogicalPlan {
        QueryBuilder::scan("R")
            .filter(Expr::col("a").cmp(CmpOp::Lt, Expr::lit(5)))
            .aggregate(None, vec![AggSpec::min(Expr::col("a"), "lo")])
    }

    fn min_by_fk() -> LogicalPlan {
        QueryBuilder::scan("R")
            .semijoin(QueryBuilder::scan("S"), "fk")
            .aggregate(Some("fk"), vec![AggSpec::min(Expr::col("a"), "lo")])
    }

    fn unsupported(r: Result<PhysicalPlan, PlanError>) -> String {
        match r {
            Err(PlanError::Unsupported(what)) => what,
            other => panic!("expected an unsupported-shape error, got {other:?}"),
        }
    }

    #[test]
    fn a_forced_strategy_is_returned_with_its_reason_and_only_its_price() {
        let (mut decisions, mut cost_terms) = (Vec::new(), Vec::new());
        let decision = Decision {
            priced: vec![(AggStrategy::Hybrid, 3.0), (AggStrategy::ValueMasking, 1.0)],
            cheapest: AggStrategy::ValueMasking,
            because: "value masking is cheaper".into(),
            forced: Some(("hybrid forced: the reason", "min/max require hybrid")),
            pin: None,
        };
        let chosen = settle(decision, &mut decisions, &mut cost_terms);
        assert_eq!(chosen.unwrap(), AggStrategy::Hybrid);
        assert_eq!(decisions, ["hybrid forced: the reason"]);
        assert_eq!(cost_terms, [("agg.hybrid".to_string(), 3.0)]);
    }

    #[test]
    fn an_unforced_decision_records_every_price_and_the_choosers_line() {
        let (mut decisions, mut cost_terms) = (Vec::new(), Vec::new());
        let decision = Decision {
            priced: vec![
                (WindowStrategy::SequentialFrameScan, 3.0),
                (WindowStrategy::ConditionalReeval, 1.0),
            ],
            cheapest: WindowStrategy::ConditionalReeval,
            because: "re-evaluation is cheaper".into(),
            forced: None,
            pin: None,
        };
        let chosen = settle(decision, &mut decisions, &mut cost_terms);
        assert_eq!(chosen.unwrap(), WindowStrategy::ConditionalReeval);
        assert_eq!(decisions, ["re-evaluation is cheaper"]);
        let terms: Vec<&str> = cost_terms.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(terms, ["window.seq-frame", "window.reeval"]);
    }

    #[test]
    fn a_pin_the_query_cannot_honour_is_the_existing_error() {
        let pins = StrategyOverrides::pin_agg(AggStrategy::ValueMasking);
        assert_eq!(
            unsupported(plan_pinned(pins, &min_of_a())),
            "cannot pin value-masking aggregation: min/max require hybrid"
        );
        let pins = StrategyOverrides::pin_groupjoin(GroupJoinStrategy::EagerAggregation);
        assert_eq!(
            unsupported(plan_pinned(pins, &min_by_fk())),
            "cannot pin eager-aggregation: min/max and probe-side filters require groupjoin"
        );
    }

    #[test]
    fn an_agreeing_pin_is_recorded_after_the_decision_it_overrides() {
        let last_two = |pins, plan: &LogicalPlan, skip: usize| {
            let physical = plan_pinned(pins, plan).expect("plans");
            let n = physical.decisions.len() - skip;
            physical.decisions[n - 2..n].to_vec()
        };
        assert_eq!(
            last_two(
                StrategyOverrides::pin_agg(AggStrategy::Hybrid),
                &min_of_a(),
                0
            ),
            [
                "hybrid forced: min/max require extra masking bookkeeping (§ III-A)",
                "strategy pinned to hybrid by the session"
            ]
        );
        // The grouped join's trail ends with its group-table line.
        let pins = StrategyOverrides::pin_groupjoin(GroupJoinStrategy::GroupJoin);
        assert_eq!(
            last_two(pins, &min_by_fk(), 1),
            [
                "groupjoin forced: min/max and probe-side filters need the selection vector",
                "groupjoin strategy pinned by the session"
            ]
        );
        let window = QueryBuilder::scan("R").window(
            None,
            vec![SortKey::asc("a")],
            FrameSpec::UnboundedPreceding,
            vec![WindowFnSpec::sum(Expr::col("a"), "running")],
            vec!["a".into()],
        );
        let pins = StrategyOverrides::pin_window(WindowStrategy::ConditionalReeval);
        let physical = plan_pinned(pins, &window).expect("plans");
        assert_eq!(
            physical.decisions.last().map(String::as_str),
            Some("window strategy pinned to frame-reeval by the session")
        );
        assert_eq!(
            physical.window_strategy(),
            Some(WindowStrategy::ConditionalReeval)
        );
    }

    /// The three override combinations of the one σ function, as the three
    /// inline ladders it replaced answered them.
    #[test]
    fn selectivity_takes_drift_then_adaptive_statistics_then_the_sample() {
        let db = db();
        let s = db.table("S").expect("registered");
        let half = Expr::col("x").cmp(CmpOp::Lt, Expr::lit(50));
        let adaptive = StatsCatalog::new(StatsMode::Adaptive, &db);
        adaptive.observe_selectivity("S", 0.6);
        let on_load = StatsCatalog::new(StatsMode::OnLoad, &db);
        let sigma = |stats: &StatsCatalog, over: SigmaOverrides| {
            let planner = Planner {
                db: &db,
                stats,
                params: &CostParams::default(),
                threads: 1,
                strategies: &StrategyOverrides::default(),
            };
            let mut decisions = Vec::new();
            let sigma = planner.selectivity(s, Some(&half), over, "σ(S)", &mut decisions);
            (sigma, decisions)
        };
        let over = |drift, adaptive| SigmaOverrides { drift, adaptive };
        // A drift hint wins over everything, adaptive statistics included.
        assert_eq!(
            sigma(&adaptive, over(Some(0.25), true)),
            (
                Some(0.25),
                vec!["σ(S) overridden to 0.2500 (observed after drift)".to_string()]
            )
        );
        // Without one, what runs observed — when the caller takes it and the
        // session keeps it.
        assert_eq!(
            sigma(&adaptive, over(None, true)),
            (
                Some(0.6),
                vec!["σ(S) = 0.6000 from adaptive statistics (sampled 0.5000)".to_string()]
            )
        );
        assert_eq!(sigma(&adaptive, over(None, false)), (Some(0.5), vec![]));
        assert_eq!(sigma(&on_load, over(None, true)), (Some(0.5), vec![]));
        // No filter, no σ — whatever the overrides.
        let planner = Planner {
            db: &db,
            stats: &adaptive,
            params: &CostParams::default(),
            threads: 1,
            strategies: &StrategyOverrides::default(),
        };
        let mut decisions = Vec::new();
        let none = planner.selectivity(s, None, over(Some(0.25), true), "σ", &mut decisions);
        assert_eq!((none, decisions), (None, vec![]));
    }
}
