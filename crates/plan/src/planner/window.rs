//! The window arm: scan → filter → sort → window functions.

use std::sync::Arc;

use super::join::extract_join_tree;
use super::{settle, Decision, PlanHints, Planner, SigmaOverrides};
use crate::error::PlanError;
use crate::expr::Expr;
use crate::logical::{FrameSpec, LogicalPlan};
use crate::physical::{CostProfile, Estimates, PhysicalPlan, Shape, WindowShape};
use crate::tile::{TileProgram, Want};
use swole_cost::choose::{choose_window, sort_cost};
use swole_cost::{WindowProfile, WindowStrategy};

impl Planner<'_> {
    /// Plan a window pipeline (`node` is the `Window` node): validate the
    /// surface, then let the chooser pick between the sequential frame scan
    /// and conditional re-evaluation (the same access trade as § III-A, over
    /// sorted frames).
    pub(super) fn plan_window(
        &self,
        node: &LogicalPlan,
        hints: PlanHints,
    ) -> Result<PhysicalPlan, PlanError> {
        let LogicalPlan::Window {
            input,
            partition_by,
            order_by,
            frame,
            funcs,
            select,
        } = node
        else {
            unreachable!("plan_core sends only window nodes here");
        };
        let partition_by = partition_by.as_deref();
        let (table_name, filter, edges) = extract_join_tree(input)?;
        if !edges.is_empty() {
            return Err(PlanError::Unsupported(
                "window input must be scan(+filter)".into(),
            ));
        }
        let table = self.db.table(&table_name)?;
        if let Some(f) = &filter {
            f.validate(table)?;
        }
        for col in select
            .iter()
            .map(String::as_str)
            .chain(order_by.iter().map(|k| k.column.as_str()))
            .chain(partition_by)
        {
            if table.column(col).is_none() {
                return Err(PlanError::UnknownColumn {
                    table: table_name.clone(),
                    column: col.to_string(),
                });
            }
        }
        let mut seen: Vec<&str> = select.iter().map(String::as_str).collect();
        for f in funcs {
            if let Some(e) = &f.expr {
                e.validate(table)?;
            }
            if seen.contains(&f.name.as_str()) {
                return Err(PlanError::Unsupported(format!(
                    "duplicate output column {} in the window select list",
                    f.name
                )));
            }
            seen.push(&f.name);
        }
        let mut decisions = Vec::new();
        let mut cost_terms = Vec::new();
        let drift = SigmaOverrides {
            drift: hints.selectivity,
            adaptive: false,
        };
        let filter_selectivity =
            self.selectivity(table, filter.as_ref(), drift, "σ", &mut decisions);
        let selectivity = filter_selectivity.unwrap_or(1.0);
        let strategy = if funcs.is_empty() {
            decisions.push("projection: no window functions to frame".into());
            // Price the degenerate projection as one sequential pass so the
            // verifier's strategy/cost-term cross-check still holds.
            cost_terms.push((
                WindowStrategy::SequentialFrameScan.cost_term().to_string(),
                table.len() as f64 * selectivity,
            ));
            WindowStrategy::SequentialFrameScan
        } else {
            let profile = WindowProfile {
                rows: table.len(),
                selectivity,
                partitions: partition_by
                    .map(|p| self.sampled_distinct(table, p))
                    .unwrap_or(1)
                    .max(1),
                frame_rows: match *frame {
                    FrameSpec::Preceding(k) => Some(k),
                    FrameSpec::WholePartition | FrameSpec::UnboundedPreceding => None,
                },
                n_funcs: funcs.len(),
            };
            let choice = choose_window(self.params, &profile);
            let decision = Decision {
                priced: vec![
                    (WindowStrategy::SequentialFrameScan, choice.cost_seq_frame),
                    (WindowStrategy::ConditionalReeval, choice.cost_reeval),
                ],
                cheapest: choice.strategy,
                because: format!(
                    "σ={selectivity:.2} → {} (seq-frame={:.2e}, reeval={:.2e})",
                    choice.explanation, choice.cost_seq_frame, choice.cost_reeval,
                ),
                forced: None,
                pin: self.strategies.window,
            };
            settle(decision, &mut decisions, &mut cost_terms)?
        };
        // The sort feeding the frames is priced like the result sort: keys
        // are (partition, order) and it runs over the qualifying rows.
        if !funcs.is_empty() || !order_by.is_empty() {
            let est_rows = ((table.len() as f64) * selectivity).ceil() as usize;
            let n_keys = order_by.len() + usize::from(partition_by.is_some());
            let cost = sort_cost(self.params, est_rows, n_keys.max(1));
            cost_terms.push(("window.sort".to_string(), cost));
        }
        let scan_program = Arc::new(TileProgram::lower(table, filter.as_ref(), &[])?);
        let gather_cols: Vec<Expr> = partition_by
            .into_iter()
            .chain(order_by.iter().map(|k| k.column.as_str()))
            .chain(select.iter().map(String::as_str))
            .map(Expr::col)
            .collect();
        let gather_wants: Vec<Want<'_>> = gather_cols
            .iter()
            .chain(funcs.iter().filter_map(|f| f.expr.as_ref()))
            .map(Want::Reg)
            .collect();
        let gather_program = Arc::new(TileProgram::lower(table, None, &gather_wants)?);
        Ok(PhysicalPlan::new(
            Shape::WindowScan(WindowShape {
                table: table_name,
                filter,
                partition_by: partition_by.map(str::to_string),
                order_by: order_by.to_vec(),
                frame: *frame,
                funcs: funcs.to_vec(),
                select: select.to_vec(),
                strategy,
                scan_program,
                gather_program,
            }),
            decisions,
            cost_terms,
            None,
            Estimates {
                selectivity: filter_selectivity,
                result_rows: (table.len() as f64 * selectivity).ceil().max(1.0) as usize,
                profile: CostProfile::Unmodelled,
            },
        ))
    }
}
