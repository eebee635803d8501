//! Lowering composed physical plans into the static-verification IR.
//!
//! The verifier (`swole-verify`) is deliberately ignorant of the planner's
//! internals: it checks a neutral [`Program`] of tables, foreign keys, and
//! per-operator expressions/artifacts/allocation sites. This module is the
//! bridge — it renders each [`Shape`] the way execution actually runs it
//! (which artifacts each stage materializes, at what scope and domain, and
//! which allocation sites charge the [`crate::MemGauge`]), so the verifier's
//! verdict is about the real composed kernels, not a parallel description.
//!
//! The lowering consults [`crate::faults::take_uncharged_alloc`]: an armed
//! uncharged-allocation fault presents the first allocation site as not
//! charging the gauge, which a `VerifyLevel::Full` pass must reject.

use swole_kernels::TILE;
use swole_storage::DataType;
use swole_verify::ir::{
    Alloc, ArithOp, Artifact, ArtifactKind, BoundExpr, ColType, ColumnDecl, ExprRole, FkDecl,
    FkRef, Import, Op, Program, Scope, StrategyRef, TableDecl, VExpr,
};
use swole_verify::{VerifyLevel, VerifyReport};

use crate::catalog::Database;
use crate::error::PlanError;
use crate::expr::Expr;
use crate::faults;
use crate::logical::{AggSpec, SortKey, WindowFnSpec};
use crate::physical::{GroupTableRepr, JoinEdge, PhysicalPlan, PostOp, Shape};
use crate::tile::TileProgram;
use swole_cost::{AggStrategy, GroupJoinStrategy, SemiJoinStrategy, WindowStrategy};
use swole_ht::DenseAggTable;

/// Lower `plan` and verify it at `level`. `Off` is a no-op by construction
/// in the engine (callers guard it), but is honoured here too.
pub(crate) fn verify_physical(
    db: &Database,
    plan: &PhysicalPlan,
    level: VerifyLevel,
) -> Result<VerifyReport, PlanError> {
    let program = program_for(db, plan)?;
    swole_verify::verify(&program, level).map_err(PlanError::Verification)
}

/// Lower a composed physical plan into the verification IR (consuming an
/// armed uncharged-allocation fault, which verification is expected to
/// catch). Use [`program_for_certification`] for bounds-only lowerings.
pub(crate) fn program_for(db: &Database, plan: &PhysicalPlan) -> Result<Program, PlanError> {
    program_for_with(db, plan, true)
}

/// Lower a plan for certification only. Does *not* consume an armed
/// uncharged-allocation fault: a `VerifyLevel::Off` session certifies every
/// plan for admission, but must stay invisible to the fault — the fault is
/// a verification probe, and tests rely on an Off-level query leaving it
/// armed for a later explicit `verify_plan` call.
pub(crate) fn program_for_certification(
    db: &Database,
    plan: &PhysicalPlan,
) -> Result<Program, PlanError> {
    program_for_with(db, plan, false)
}

fn program_for_with(
    db: &Database,
    plan: &PhysicalPlan,
    consume_fault: bool,
) -> Result<Program, PlanError> {
    let fault_uncharged = consume_fault && faults::take_uncharged_alloc();
    let mut program = match &plan.shape {
        Shape::ScanAgg {
            table,
            filter,
            group_by,
            aggs,
            strategy,
            group_table,
            program,
        } => lower_scan_agg(
            db,
            plan,
            table,
            filter.as_ref(),
            group_by.as_deref(),
            aggs,
            *strategy,
            *group_table,
            program,
        )?,
        Shape::MultiJoinAgg {
            fact,
            fact_filter,
            edges,
            aggs,
            probe_masked,
            group,
            group_table,
            fact_program,
            ..
        } => lower_multijoin_agg(
            db,
            plan,
            fact,
            fact_filter.as_ref(),
            edges,
            aggs,
            *probe_masked,
            group.as_ref(),
            *group_table,
            fact_program,
        )?,
        Shape::WindowScan {
            table,
            filter,
            partition_by,
            order_by,
            funcs,
            select,
            strategy,
            scan_program,
            gather_program,
            ..
        } => lower_window_scan(
            db,
            plan,
            table,
            filter.as_ref(),
            partition_by.as_deref(),
            order_by,
            funcs,
            select,
            *strategy,
            // Workers charge the scan's register file; the submitter
            // charges the gather pass's once. Declaring the sum per worker
            // dominates both.
            scan_program.scratch_bytes() + gather_program.scratch_bytes(),
        )?,
    };
    // Result-level post-operators run over the materialized result but are
    // still part of the composed plan: lower them so ORDER BY / LIMIT
    // queries pass through the same gate as the core pipeline.
    if let Some(base) = program.tables.first() {
        let (tname, trows) = (base.name.clone(), base.rows);
        for p in &plan.post {
            match p {
                PostOp::Sort { .. } => {
                    let mut op = Op::new(&format!("sort({tname})"), "/post/sort", &tname, trows);
                    op.strategy = Some(StrategyRef::Sort);
                    op.cost_terms = vec!["sort.rows".to_string()];
                    op.allocs.push(Alloc {
                        site: "sort-selection-vector".to_string(),
                        charged: true,
                    });
                    program.ops.push(op);
                }
                PostOp::Limit { .. } => {
                    let mut op = Op::new(&format!("limit({tname})"), "/post/limit", &tname, trows);
                    op.strategy = Some(StrategyRef::Limit);
                    op.cost_terms = vec!["limit.rows".to_string()];
                    program.ops.push(op);
                }
            }
        }
    }
    if fault_uncharged {
        if let Some(alloc) = program.ops.first_mut().and_then(|op| op.allocs.first_mut()) {
            alloc.charged = false;
        }
    }
    Ok(program)
}

/// A table declaration from the live catalog, with storage types collapsed
/// to the verifier's view (all signed widths are `Int`).
fn table_decl(db: &Database, name: &str) -> Result<TableDecl, PlanError> {
    let t = db.table(name)?;
    let columns = t
        .column_names()
        .map(|c| ColumnDecl {
            name: c.to_string(),
            ty: match t.column(c).map(|col| col.data_type()) {
                Some(DataType::U32) => ColType::U32,
                Some(DataType::Dict) => ColType::Dict,
                _ => ColType::Int,
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

/// The per-worker register file every morsel stage charges at `init`.
fn worker_scratch_alloc() -> Alloc {
    Alloc {
        site: "worker-scratch".to_string(),
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

fn cmp_artifact(table: &str) -> Artifact {
    Artifact {
        kind: ArtifactKind::ValueMask,
        table: table.to_string(),
        rows: TILE,
        scope: Scope::Tile,
    }
}

#[allow(clippy::too_many_arguments)]
fn lower_scan_agg(
    db: &Database,
    plan: &PhysicalPlan,
    table: &str,
    filter: Option<&Expr>,
    group_by: Option<&str>,
    aggs: &[AggSpec],
    strategy: AggStrategy,
    group_table: GroupTableRepr,
    program: &TileProgram,
) -> Result<Program, PlanError> {
    let decl = table_decl(db, table)?;
    let rows = decl.rows;
    let grouped = group_by.is_some();
    let name = if grouped {
        format!("groupby-agg({table})")
    } else {
        format!("agg({table})")
    };
    let mut op = Op::new(&name, "/scan-agg", table, rows);
    if let Some(f) = filter {
        op.exprs.push(BoundExpr {
            role: ExprRole::Predicate,
            expr: lower_expr(f),
        });
    }
    op.exprs.extend(agg_inputs(aggs));
    if let Some(g) = group_by {
        op.exprs.push(BoundExpr {
            role: ExprRole::GroupKey,
            expr: VExpr::Col(g.to_string()),
        });
    }
    op.strategy = Some(StrategyRef::Agg { strategy, grouped });
    op.n_aggs = Some(aggs.len());
    op.scratch_bytes = program.scratch_bytes();
    op.cost_terms = cost_term_names(plan);
    // Every strategy evaluates the predicate into the tile-scoped `cmp`
    // mask; hybrid compacts it into a tile selection vector, grouped key
    // masking folds it into the tile key buffer.
    op.locals.push(cmp_artifact(table));
    match (strategy, grouped) {
        (AggStrategy::Hybrid, _) | (AggStrategy::KeyMasking, false) => {
            op.locals.push(Artifact {
                kind: ArtifactKind::SelectionVector,
                table: table.to_string(),
                rows: TILE,
                scope: Scope::Tile,
            });
        }
        (AggStrategy::KeyMasking, true) => {
            op.locals.push(Artifact {
                kind: ArtifactKind::KeyMask,
                table: table.to_string(),
                rows: TILE,
                scope: Scope::Tile,
            });
        }
        (AggStrategy::ValueMasking, _) => {}
    }
    op.allocs.push(Alloc {
        site: "worker-scratch".to_string(),
        charged: true,
    });
    if grouped {
        op.allocs.push(Alloc {
            site: "agg-table".to_string(),
            charged: true,
        });
        op.dense_group_slots = dense_group_slots(db, group_table, table, table);
    }
    Ok(Program {
        tables: vec![decl],
        fks: Vec::new(),
        ops: vec![op],
        tile_rows: TILE,
    })
}

/// Lower a window pipeline. The parallel filter phase materializes a
/// tile-scoped predicate mask and stitches the qualifying rows into a
/// plan-scoped selection vector (the window sort's input domain); function
/// inputs are aggregate-input contexts and the partition/order keys are
/// group keys, so pass 1 enforces the same typing as grouped aggregation.
#[allow(clippy::too_many_arguments)]
fn lower_window_scan(
    db: &Database,
    plan: &PhysicalPlan,
    table: &str,
    filter: Option<&Expr>,
    partition_by: Option<&str>,
    order_by: &[SortKey],
    funcs: &[WindowFnSpec],
    select: &[String],
    strategy: WindowStrategy,
    scratch_bytes: usize,
) -> Result<Program, PlanError> {
    let decl = table_decl(db, table)?;
    let rows = decl.rows;
    let mut op = Op::new(&format!("window({table})"), "/window-scan", table, rows);
    if let Some(f) = filter {
        op.exprs.push(BoundExpr {
            role: ExprRole::Predicate,
            expr: lower_expr(f),
        });
    }
    for f in funcs {
        if let Some(e) = &f.expr {
            op.exprs.push(BoundExpr {
                role: ExprRole::AggInput,
                expr: lower_expr(e),
            });
        }
    }
    for c in partition_by
        .iter()
        .copied()
        .chain(order_by.iter().map(|k| k.column.as_str()))
    {
        op.exprs.push(BoundExpr {
            role: ExprRole::GroupKey,
            expr: VExpr::Col(c.to_string()),
        });
    }
    op.strategy = Some(StrategyRef::Window { strategy });
    op.scratch_bytes = scratch_bytes;
    // Phase 2 materializes one column per partition key, order key,
    // projected column, and function input — exactly what execution charges.
    op.mat_cols = Some(1 + order_by.len() + select.len() + funcs.len());
    op.n_aggs = Some(funcs.len());
    op.cost_terms = cost_term_names(plan);
    op.locals.push(cmp_artifact(table));
    op.locals.push(Artifact {
        kind: ArtifactKind::SelectionVector,
        table: table.to_string(),
        rows,
        scope: Scope::Plan,
    });
    op.allocs.push(Alloc {
        site: "worker-scratch".to_string(),
        charged: true,
    });
    op.allocs.push(Alloc {
        site: "selection-vector".to_string(),
        charged: true,
    });
    Ok(Program {
        tables: vec![decl],
        fks: Vec::new(),
        ops: vec![op],
        tile_rows: TILE,
    })
}

/// The FK edge a probe shape traverses: the registered index when present,
/// otherwise the raw `u32` column's dense-key mapping onto the build table.
fn fk_decl(db: &Database, probe: &str, fk_col: &str, build: &str) -> Result<FkDecl, PlanError> {
    let probe_rows = db.table(probe)?.len();
    let parent_rows = match db.fk_index(probe, fk_col, build) {
        Some(idx) => idx.parent_len(),
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

/// Lower one join edge's build side, post-order (chain children first, so
/// every `ValueMask` import resolves against an earlier export).
///
/// Direct fact edges are semijoin builds: qualifying mask, then the
/// membership structure the probe imports. Nested chain edges export only
/// their qualifying `ValueMask` — execution folds it into the parent's mask
/// through the parent's FK column.
fn lower_join_build(
    db: &Database,
    child: &str,
    e: &JoinEdge,
    direct: bool,
    tables: &mut Vec<TableDecl>,
    fks: &mut Vec<FkDecl>,
    ops: &mut Vec<Op>,
) -> Result<(), PlanError> {
    for c in &e.children {
        lower_join_build(db, &e.parent, c, false, tables, fks, ops)?;
    }
    let decl = table_decl(db, &e.parent)?;
    let rows = decl.rows;
    if !tables.iter().any(|t| t.name == decl.name) {
        tables.push(decl);
    }
    fks.push(fk_decl(db, child, &e.fk_col, &e.parent)?);
    let mut op = Op::new(
        &format!("multijoin-build({})", e.parent),
        "/multijoin-agg/build",
        &e.parent,
        rows,
    );
    if let Some(f) = &e.parent_filter {
        op.exprs.push(BoundExpr {
            role: ExprRole::Predicate,
            expr: lower_expr(f),
        });
    }
    for c in &e.children {
        op.imports.push(Import {
            kind: ArtifactKind::ValueMask,
            table: c.parent.clone(),
            via_fk: Some(FkRef {
                child: e.parent.clone(),
                fk_col: c.fk_col.clone(),
                parent: c.parent.clone(),
            }),
        });
    }
    op.scratch_bytes = e.parent_program.scratch_bytes();
    op.allocs.push(Alloc {
        site: "build-mask".to_string(),
        charged: true,
    });
    op.allocs.push(worker_scratch_alloc());
    if direct {
        op.strategy = Some(StrategyRef::SemiJoinBuild(e.strategy));
        op.locals.push(Artifact {
            kind: ArtifactKind::ValueMask,
            table: e.parent.clone(),
            rows,
            scope: Scope::Plan,
        });
        match e.strategy {
            SemiJoinStrategy::Hash => {
                op.exports.push(Artifact {
                    kind: ArtifactKind::KeySet,
                    table: e.parent.clone(),
                    rows,
                    scope: Scope::Plan,
                });
                op.allocs.push(Alloc {
                    site: "key-set".to_string(),
                    charged: true,
                });
            }
            SemiJoinStrategy::PositionalBitmap(bmb) => {
                if bmb == swole_cost::BitmapBuild::SelectionVector {
                    op.locals.push(Artifact {
                        kind: ArtifactKind::SelectionVector,
                        table: e.parent.clone(),
                        rows,
                        scope: Scope::Plan,
                    });
                    op.allocs.push(Alloc {
                        site: "selection-vector".to_string(),
                        charged: true,
                    });
                }
                op.exports.push(Artifact {
                    kind: ArtifactKind::PositionalBitmap,
                    table: e.parent.clone(),
                    rows,
                    scope: Scope::Plan,
                });
                op.allocs.push(Alloc {
                    site: "positional-bitmap".to_string(),
                    charged: true,
                });
            }
        }
    } else {
        // Chain edge: the mask itself crosses the operator boundary.
        op.strategy = Some(StrategyRef::GroupJoinBuild);
        op.exports.push(Artifact {
            kind: ArtifactKind::ValueMask,
            table: e.parent.clone(),
            rows,
            scope: Scope::Plan,
        });
    }
    ops.push(op);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn lower_multijoin_agg(
    db: &Database,
    plan: &PhysicalPlan,
    fact: &str,
    fact_filter: Option<&Expr>,
    edges: &[JoinEdge],
    aggs: &[AggSpec],
    probe_masked: bool,
    group: Option<&(String, GroupJoinStrategy)>,
    group_table: GroupTableRepr,
    fact_program: &TileProgram,
) -> Result<Program, PlanError> {
    let fact_decl = table_decl(db, fact)?;
    let fact_rows = fact_decl.rows;
    let mut tables = vec![fact_decl];
    let mut fks = Vec::new();
    let mut ops = Vec::new();
    for e in edges {
        lower_join_build(db, fact, e, true, &mut tables, &mut fks, &mut ops)?;
    }
    let mut probe_op = Op::new(
        &format!("multijoin-agg({fact})"),
        "/multijoin-agg/probe",
        fact,
        fact_rows,
    );
    if let Some(f) = fact_filter {
        probe_op.exprs.push(BoundExpr {
            role: ExprRole::Predicate,
            expr: lower_expr(f),
        });
    }
    probe_op.exprs.extend(agg_inputs(aggs));
    probe_op.allocs.push(worker_scratch_alloc());
    // Whether the tile body compacts the filter mask into a selection
    // vector (which each edge then narrows).
    let selects = match group {
        // The probe either folds the bitmap bit into the tile mask or narrows
        // a tile selection vector edge-by-edge; its access signature is the
        // semijoin probe's, whichever membership structure each edge gathers
        // into.
        None => {
            let first_strategy = edges
                .first()
                .map(|e| e.strategy)
                .unwrap_or(SemiJoinStrategy::Hash);
            probe_op.strategy = Some(StrategyRef::SemiJoinProbe {
                strategy: first_strategy,
                probe_masked,
            });
            probe_op.scratch_bytes = crate::engine::scalar_scratch_bytes(fact_program, edges.len());
            !probe_masked
        }
        // Grouped by the edge's FK: the groupjoin narrows the selection
        // through the edge, eager aggregation upserts every lane and
        // consults the edge after the merge. Either way each worker fills
        // a private table.
        Some((g, strategy)) => {
            probe_op.exprs.push(BoundExpr {
                role: ExprRole::GroupKey,
                expr: VExpr::Col(g.clone()),
            });
            probe_op.strategy = Some(StrategyRef::GroupJoin(*strategy));
            probe_op.scratch_bytes = fact_program.scratch_bytes();
            probe_op.allocs.push(Alloc {
                site: "agg-table".to_string(),
                charged: true,
            });
            probe_op.dense_group_slots = edges
                .first()
                .and_then(|e| dense_group_slots(db, group_table, fact, &e.parent));
            *strategy == GroupJoinStrategy::GroupJoin
        }
    };
    probe_op.n_aggs = Some(aggs.len());
    probe_op.cost_terms = cost_term_names(plan);
    for e in edges {
        probe_op.imports.push(Import {
            kind: match e.strategy {
                SemiJoinStrategy::Hash => ArtifactKind::KeySet,
                SemiJoinStrategy::PositionalBitmap(_) => ArtifactKind::PositionalBitmap,
            },
            table: e.parent.clone(),
            via_fk: Some(FkRef {
                child: fact.to_string(),
                fk_col: e.fk_col.clone(),
                parent: e.parent.clone(),
            }),
        });
    }
    probe_op.locals.push(cmp_artifact(fact));
    if selects {
        probe_op.locals.push(Artifact {
            kind: ArtifactKind::SelectionVector,
            table: fact.to_string(),
            rows: TILE,
            scope: Scope::Tile,
        });
    }
    ops.push(probe_op);
    Ok(Program {
        tables,
        fks,
        ops,
        tile_rows: TILE,
    })
}
