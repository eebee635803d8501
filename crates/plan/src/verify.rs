//! Lowering composed physical plans into the static-verification IR.
//!
//! The verifier (`swole-verify`) is deliberately ignorant of the planner's
//! internals: it checks a neutral [`Program`] of tables, foreign keys, and
//! per-operator expressions/artifacts/allocation sites. This module is the
//! bridge — it renders each [`Shape`] the way execution actually runs it
//! (which artifacts each stage materializes, at what scope and domain, and
//! which allocation sites charge the [`crate::MemGauge`]), so the verifier's
//! verdict is about the real composed kernels, not a parallel description.

use swole_kernels::TILE;
use swole_storage::DataType;
use swole_verify::ir::{
    Alloc, ArithOp, Artifact, ArtifactKind, BoundExpr, ColType, ColumnDecl, Committed, ExprRole,
    FkDecl, FkRef, Import, Op, Program, Scope, StrategyRef, TableDecl, VExpr,
};

use crate::catalog::Database;
use crate::error::PlanError;
use crate::exec::{build_access, post_access, window_access};
use crate::expr::Expr;
use crate::logical::AggSpec;
use crate::physical::{
    AggMode, AggShape, GroupTableRepr, JoinEdge, Lanes, PhysicalPlan, PostOp, Shape, WindowShape,
};
use swole_cost::{BitmapBuild, SemiJoinStrategy};
use swole_ht::DenseAggTable;

/// Lower a composed physical plan into the verification IR.
pub(crate) fn program_for(db: &Database, plan: &PhysicalPlan) -> Result<Program, PlanError> {
    let mut program = match &plan.shape {
        Shape::Agg(shape) => lower_agg(db, plan, shape)?,
        Shape::WindowScan(shape) => lower_window_scan(db, plan, shape)?,
    };
    // Result-level post-operators run over the materialized result but are
    // still part of the composed plan: lower them so ORDER BY / LIMIT
    // queries pass through the same gate as the core pipeline.
    if let Some(base) = program.tables.first() {
        let (tname, trows) = (base.name.clone(), base.rows);
        for p in &plan.post {
            let (name, priced) = match p {
                PostOp::Sort { .. } => ("sort", StrategyRef::Sort),
                PostOp::Limit { .. } => ("limit", StrategyRef::Limit),
            };
            let mut op = Op::new(
                &format!("{name}({tname})"),
                &format!("/post/{name}"),
                &tname,
                trows,
            );
            op.cost_terms = vec![format!("{name}.rows")];
            if priced == StrategyRef::Sort {
                op.allocs.push(charged("sort-selection-vector"));
            }
            let runs = post_access(p);
            op.strategy = Some(Committed { priced, runs });
            program.ops.push(op);
        }
    }
    Ok(program)
}

/// A table declaration from the live catalog, with storage types mapped to
/// the verifier's view (signed widths keep their width).
fn table_decl(db: &Database, name: &str) -> Result<TableDecl, PlanError> {
    let t = db.table(name)?;
    let columns = t
        .column_names()
        .map(|c| ColumnDecl {
            name: c.to_string(),
            ty: match t.column(c).map(|col| col.data_type()) {
                Some(DataType::U32) => ColType::U32,
                Some(DataType::Dict) => ColType::Dict,
                Some(DataType::I8) => ColType::Int(8),
                Some(DataType::I16) => ColType::Int(16),
                Some(DataType::I32) => ColType::Int(32),
                Some(DataType::I64) | None => ColType::Int(64),
            },
        })
        .collect();
    Ok(TableDecl {
        name: name.to_string(),
        rows: t.len(),
        columns,
    })
}

/// Lower a planner expression. Structure is preserved only as far as the
/// verifier's checks need: column references, dictionary predicates,
/// parameter slots, and which sub-trees are arithmetic contexts.
fn lower_expr(e: &Expr) -> VExpr {
    match e {
        Expr::Col(c) => VExpr::Col(c.clone()),
        Expr::Lit(v) => VExpr::Lit(*v),
        Expr::Param(i) => VExpr::Param(*i),
        Expr::Cmp(_, a, b) => VExpr::Cmp(vec![lower_expr(a), lower_expr(b)]),
        Expr::Add(a, b) => VExpr::Arith(ArithOp::Add, vec![lower_expr(a), lower_expr(b)]),
        Expr::Sub(a, b) => VExpr::Arith(ArithOp::Sub, vec![lower_expr(a), lower_expr(b)]),
        Expr::Mul(a, b) => VExpr::Arith(ArithOp::Mul, vec![lower_expr(a), lower_expr(b)]),
        Expr::Div(a, b) => VExpr::Arith(ArithOp::Div, vec![lower_expr(a), lower_expr(b)]),
        Expr::And(a, b) | Expr::Or(a, b) => VExpr::Bool(vec![lower_expr(a), lower_expr(b)]),
        Expr::Not(a) => VExpr::Bool(vec![lower_expr(a)]),
        Expr::Like { col, .. } | Expr::InList { col, .. } => VExpr::DictPredicate(col.clone()),
        Expr::Case {
            when,
            then,
            otherwise,
        } => VExpr::Case(vec![
            lower_expr(when),
            lower_expr(then),
            lower_expr(otherwise),
        ]),
    }
}

/// An operator's own filter, if it has one.
fn predicate(filter: &Option<Expr>) -> Option<BoundExpr> {
    filter.as_ref().map(|f| BoundExpr {
        role: ExprRole::Predicate,
        expr: lower_expr(f),
    })
}

fn agg_inputs(aggs: &[AggSpec]) -> Vec<BoundExpr> {
    aggs.iter()
        .map(|a| BoundExpr {
            role: ExprRole::AggInput,
            expr: lower_expr(&a.expr),
        })
        .collect()
}

fn cost_term_names(plan: &PhysicalPlan) -> Vec<String> {
    plan.cost_terms
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

/// An allocation site that charges the gauge before it allocates
/// (`worker-scratch` is the per-worker register file every morsel stage
/// charges at `init`).
fn charged(site: &str) -> Alloc {
    Alloc {
        site: site.to_string(),
        charged: true,
    }
}

/// Keys of the dense group table the executor will allocate for a grouped
/// operator, resolved exactly as execution resolves it: the planned domain
/// holds only while `scanned` and `domain` are at the generations it was
/// read from ([`GroupTableRepr::at`]).
fn dense_group_slots(
    db: &Database,
    group_table: GroupTableRepr,
    scanned: &str,
    domain: &str,
) -> Option<usize> {
    let generations = (db.generation(scanned)?, db.generation(domain)?);
    match group_table.at(generations) {
        GroupTableRepr::Dense { min, max, .. } => DenseAggTable::slots_for(min, max),
        GroupTableRepr::Hash => None,
    }
}

/// An artifact that lives for one tile of `table`.
fn tile_artifact(kind: ArtifactKind, table: &str) -> Artifact {
    Artifact {
        scope: Scope::Tile,
        ..plan_artifact(kind, table, TILE)
    }
}

/// An artifact over all `rows` of `table` that lives as long as the plan.
fn plan_artifact(kind: ArtifactKind, table: &str, rows: usize) -> Artifact {
    Artifact {
        kind,
        table: table.to_string(),
        rows,
        scope: Scope::Plan,
    }
}

/// Lower a window pipeline. The parallel filter phase materializes a
/// tile-scoped predicate mask and stitches the qualifying rows into a
/// plan-scoped selection vector (the window sort's input domain); function
/// inputs are aggregate-input contexts and the partition/order keys are
/// group keys, so pass 1 enforces the same typing as grouped aggregation.
fn lower_window_scan(
    db: &Database,
    plan: &PhysicalPlan,
    shape: &WindowShape,
) -> Result<Program, PlanError> {
    let WindowShape {
        table,
        partition_by,
        order_by,
        funcs,
        select,
        ..
    } = shape;
    let decl = table_decl(db, table)?;
    let rows = decl.rows;
    let mut op = Op::new(&format!("window({table})"), "/window-scan", table, rows);
    op.exprs.extend(predicate(&shape.filter));
    for f in funcs {
        if let Some(e) = &f.expr {
            op.exprs.push(BoundExpr {
                role: ExprRole::AggInput,
                expr: lower_expr(e),
            });
        }
    }
    for c in partition_by
        .as_deref()
        .into_iter()
        .chain(order_by.iter().map(|k| k.column.as_str()))
    {
        op.exprs.push(BoundExpr {
            role: ExprRole::GroupKey,
            expr: VExpr::Col(c.to_string()),
        });
    }
    op.strategy = Some(Committed {
        priced: StrategyRef::Window {
            strategy: shape.strategy,
        },
        runs: window_access(shape.strategy),
    });
    // Workers charge the scan's register file; the submitter charges the
    // gather pass's once. Declaring the sum per worker dominates both.
    op.scratch_bytes = shape.scan_program.scratch_bytes() + shape.gather_program.scratch_bytes();
    // Phase 2 materializes one column per partition key, order key,
    // projected column, and function input — exactly what execution charges.
    op.mat_cols = Some(1 + order_by.len() + select.len() + funcs.len());
    op.n_aggs = Some(funcs.len());
    op.cost_terms = cost_term_names(plan);
    op.locals
        .push(tile_artifact(ArtifactKind::ValueMask, table));
    op.locals
        .push(plan_artifact(ArtifactKind::SelectionVector, table, rows));
    op.allocs.push(charged("worker-scratch"));
    op.allocs.push(charged("selection-vector"));
    Ok(Program {
        tables: vec![decl],
        fks: Vec::new(),
        ops: vec![op],
        tile_rows: TILE,
    })
}

/// The FK edge a probe shape traverses: the `u32` column's dense-key
/// mapping onto the build table's rows, as many as the FK's registration
/// recorded (the table's own count when the FK is unregistered).
fn fk_decl(db: &Database, probe: &str, fk_col: &str, build: &str) -> Result<FkDecl, PlanError> {
    let probe_rows = db.table(probe)?.len();
    let parent_rows = match db.fk_parent_rows(probe, fk_col, build) {
        Some(rows) => rows,
        None => db.table(build)?.len(),
    };
    Ok(FkDecl {
        child: probe.to_string(),
        fk_col: fk_col.to_string(),
        parent: build.to_string(),
        child_rows: probe_rows,
        parent_rows,
    })
}

/// The artifact a positional edge's build exports: its byte map or its
/// bitmap, sized by the bounds pass at what the build allocates.
fn positional_kind(e: &JoinEdge) -> ArtifactKind {
    match e.bytes {
        true => ArtifactKind::PositionalBytes,
        false => ArtifactKind::PositionalBitmap,
    }
}

/// Lower one join edge's build side, post-order (chain edges first, so
/// every bitmap import resolves against an earlier export).
///
/// Every edge is a semijoin build written from its tile loop: the parent's
/// filter into a tile-scoped mask, each chain edge's bitmap or byte map
/// ANDed in through its FK, then the membership structure the next
/// operator imports. The selection-vector and hash builds compact the tile
/// mask into a tile-scoped selection vector first.
fn lower_join_build(
    db: &Database,
    child: &str,
    e: &JoinEdge,
    tables: &mut Vec<TableDecl>,
    fks: &mut Vec<FkDecl>,
    ops: &mut Vec<Op>,
) -> Result<(), PlanError> {
    for c in &e.children {
        lower_join_build(db, &e.parent, c, tables, fks, ops)?;
    }
    let decl = table_decl(db, &e.parent)?;
    let rows = decl.rows;
    if !tables.iter().any(|t| t.name == decl.name) {
        tables.push(decl);
    }
    fks.push(fk_decl(db, child, &e.fk_col, &e.parent)?);
    let mut op = Op::new(
        &JoinEdge::build_op(&e.parent),
        "/multijoin-agg/build",
        &e.parent,
        rows,
    );
    op.exprs.extend(predicate(&e.parent_filter));
    for c in &e.children {
        op.imports.push(Import {
            kind: positional_kind(c),
            table: c.parent.clone(),
            via_fk: Some(FkRef {
                child: e.parent.clone(),
                fk_col: c.fk_col.clone(),
                parent: c.parent.clone(),
            }),
        });
    }
    let strategy = e.strategy;
    op.strategy = Some(Committed {
        priced: StrategyRef::SemiJoinBuild(strategy),
        runs: build_access(strategy),
    });
    op.scratch_bytes = e.parent_program.scratch_bytes();
    op.allocs.push(charged("worker-scratch"));
    op.locals
        .push(tile_artifact(ArtifactKind::ValueMask, &e.parent));
    if strategy != SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional) {
        op.locals
            .push(tile_artifact(ArtifactKind::SelectionVector, &e.parent));
    }
    let kind = match strategy {
        SemiJoinStrategy::Hash => ArtifactKind::KeySet,
        SemiJoinStrategy::PositionalBitmap(_) => positional_kind(e),
    };
    let site = match kind {
        ArtifactKind::KeySet => "key-set",
        ArtifactKind::PositionalBytes => "positional-bytes",
        _ => "positional-bitmap",
    };
    op.exports.push(plan_artifact(kind, &e.parent, rows));
    op.allocs.push(charged(site));
    ops.push(op);
    Ok(())
}

/// Lower an aggregation: one build operator per join edge (none for a plain
/// scan), then the operator that scans `table`, restricts each tile through
/// the edges and aggregates — named, like the executor's, by edge count and
/// key.
fn lower_agg(db: &Database, plan: &PhysicalPlan, shape: &AggShape) -> Result<Program, PlanError> {
    let AggShape {
        table,
        edges,
        aggs,
        mode,
        instance,
        program,
        ..
    } = shape;
    let group = shape.group.as_deref();
    let decl = table_decl(db, table)?;
    let rows = decl.rows;
    let mut tables = vec![decl];
    let mut fks = Vec::new();
    let mut ops = Vec::new();
    for e in edges {
        lower_join_build(db, table, e, &mut tables, &mut fks, &mut ops)?;
    }
    let grouped = group.is_some();
    let path = if edges.is_empty() {
        "/scan-agg"
    } else {
        "/multijoin-agg/probe"
    };
    let mut op = Op::new(&shape.op_name(), path, table, rows);
    op.exprs.extend(predicate(&shape.filter));
    op.exprs.extend(agg_inputs(aggs));
    let priced = match *mode {
        AggMode::By(strategy) => StrategyRef::Agg { strategy, grouped },
        // The probe either folds the bitmap bit into the tile mask or narrows
        // a tile selection vector edge-by-edge; its access signature is the
        // semijoin probe's, whichever membership structure each edge gathers
        // into.
        AggMode::Probe { masked } => StrategyRef::SemiJoinProbe {
            strategy: edges
                .first()
                .map(|e| e.strategy)
                .unwrap_or(SemiJoinStrategy::Hash),
            probe_masked: masked,
        },
        AggMode::Join(strategy) => StrategyRef::GroupJoin(strategy),
    };
    // What the cost model priced, and the loop the executor dispatches:
    // pass 3 checks the one against the other.
    let runs = instance.access(!edges.is_empty());
    op.strategy = Some(Committed { priced, runs });
    op.allocs.push(charged("worker-scratch"));
    if let Some(g) = group {
        // Each worker fills a private group table.
        op.exprs.push(BoundExpr {
            role: ExprRole::GroupKey,
            expr: VExpr::Col(g.to_string()),
        });
        op.scratch_bytes = program.scratch_bytes();
        op.allocs.push(charged("agg-table"));
        let domain = edges.first().map_or(table, |e| &e.parent);
        op.dense_group_slots = dense_group_slots(db, shape.group_table, table, domain);
    } else {
        op.scratch_bytes = crate::exec::scalar_scratch_bytes(program, edges.len());
    }
    op.n_aggs = Some(aggs.len());
    op.cost_terms = cost_term_names(plan);
    for e in edges {
        op.imports.push(Import {
            kind: match e.strategy {
                SemiJoinStrategy::Hash => ArtifactKind::KeySet,
                SemiJoinStrategy::PositionalBitmap(_) => positional_kind(e),
            },
            table: e.parent.clone(),
            via_fk: Some(FkRef {
                child: table.to_string(),
                fk_col: e.fk_col.clone(),
                parent: e.parent.clone(),
            }),
        });
    }
    // Every instance evaluates the predicate into the tile-scoped `cmp`
    // mask; selected lanes compact it into a tile selection vector (which
    // each edge then narrows), key-masked lanes fold it into the tile key
    // buffer.
    op.locals
        .push(tile_artifact(ArtifactKind::ValueMask, table));
    match instance.lanes {
        Lanes::Selected => op
            .locals
            .push(tile_artifact(ArtifactKind::SelectionVector, table)),
        Lanes::KeyMasked => op.locals.push(tile_artifact(ArtifactKind::KeyMask, table)),
        Lanes::Masked | Lanes::Every => {}
    }
    ops.push(op);
    Ok(Program {
        tables,
        fks,
        ops,
        tile_rows: TILE,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StrategyOverrides;
    use crate::expr::CmpOp;
    use crate::logical::QueryBuilder;
    use crate::Engine;
    use swole_cost::AggStrategy;
    use swole_storage::{ColumnData, Table};
    use swole_verify::{VerifyErrorKind, VerifyLevel};

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(
            Table::new("R")
                .with_column("x", ColumnData::I32((0..4_000).map(|i| i % 100).collect()))
                .with_column("a", ColumnData::I32((0..4_000).map(|i| i % 10).collect())),
        );
        db
    }

    /// Pass 3 checks the loop that runs, not the strategy priced: a hybrid
    /// scalar aggregate whose instance is switched to masked lanes reads
    /// its input in order where the hybrid's model reads it through the
    /// selection vector.
    #[test]
    fn a_stage_running_another_instance_than_priced_fails_pass_3() {
        let query = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(50)))
            .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
        let engine = Engine::builder(db())
            .strategies(StrategyOverrides::pin_agg(AggStrategy::Hybrid))
            .build();
        let mut plan = engine.plan(&query).expect("plans");
        let db = db();
        let verify = |plan: &PhysicalPlan| {
            let program = program_for(&db, plan).expect("lowers");
            swole_verify::verify(&program, VerifyLevel::Full)
        };
        assert!(verify(&plan).is_ok());
        let Shape::Agg(shape) = &mut plan.shape else {
            panic!("a scan aggregation");
        };
        assert_eq!(shape.instance.lanes, Lanes::Selected);
        shape.instance.lanes = Lanes::Masked;
        let e = match verify(&plan) {
            Err(e) => e,
            other => panic!("pass 3 let a masked run of a hybrid plan through: {other:?}"),
        };
        assert!(
            matches!(
                e.kind,
                VerifyErrorKind::SignatureMismatch { ref attribute, .. } if attribute == "aggregate input"
            ),
            "{e}"
        );
    }
}
