//! The four verification passes.
//!
//! Each pass takes a lowered [`Program`] and returns a small summary on
//! success or the first [`VerifyError`] in operator order. Pass 3 is where
//! "access-aware" becomes checkable: the signature of the loop the executor
//! dispatches ([`Committed::runs`], which the engine reads off the stage it
//! built) is compared against an independent encoding of what the cost model
//! assumed when pricing the strategy ([`modelled_signature`]), so a stage
//! that runs another loop than the one priced is caught.

use swole_cost::{AggStrategy, GroupJoinStrategy, WindowStrategy};

use crate::ir::{
    Access, AccessSig, Artifact, ArtifactKind, Committed, ExprRole, Op, Program, Scope,
    StrategyRef, VExpr,
};
use crate::{VerifyError, VerifyErrorKind};

/// Pass 1 summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemaSummary {
    /// Expressions walked.
    pub exprs: usize,
    /// Column references resolved.
    pub column_refs: usize,
}

/// Pass 2 summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainSummary {
    /// Artifacts (locals + exports) whose domains were validated.
    pub artifacts: usize,
    /// Cross-operator imports matched to an earlier export.
    pub imports: usize,
}

/// Pass 3 summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureSummary {
    /// Operators whose strategy signature was checked.
    pub checked: usize,
}

/// Pass 4 summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceSummary {
    /// Allocation sites confirmed gauge-charged.
    pub sites: usize,
    /// Artifacts matched to a covering allocation site.
    pub covered_artifacts: usize,
}

fn err(path: &str, kind: VerifyErrorKind) -> VerifyError {
    VerifyError {
        path: path.to_string(),
        kind,
    }
}

/// Pass 1: schema/type soundness.
///
/// Every column referenced by an operator's expressions must exist on the
/// operator's table; dictionary predicates (`LIKE`/`IN`) may only target
/// dictionary-encoded columns; dictionary codes may not flow into arithmetic
/// or aggregate-input contexts; and no `Param` placeholder may survive.
pub fn check_schema(program: &Program) -> Result<SchemaSummary, VerifyError> {
    let mut summary = SchemaSummary {
        exprs: 0,
        column_refs: 0,
    };
    for op in &program.ops {
        let table = program.table(&op.table).ok_or_else(|| {
            err(
                &op.path,
                VerifyErrorKind::UnknownColumn {
                    table: op.table.clone(),
                    column: "<table missing from program>".to_string(),
                },
            )
        })?;
        for bound in &op.exprs {
            summary.exprs = summary.exprs.wrapping_add(1);
            let numeric = matches!(bound.role, ExprRole::AggInput);
            walk_expr(&bound.expr, op, table, numeric, &mut summary.column_refs)?;
        }
    }
    Ok(summary)
}

fn walk_expr(
    expr: &VExpr,
    op: &Op,
    table: &crate::ir::TableDecl,
    numeric: bool,
    column_refs: &mut usize,
) -> Result<(), VerifyError> {
    match expr {
        VExpr::Lit(_) => Ok(()),
        VExpr::Param(ordinal) => Err(err(
            &op.path,
            VerifyErrorKind::UnboundParam { ordinal: *ordinal },
        )),
        VExpr::Col(name) => {
            *column_refs = column_refs.wrapping_add(1);
            let ty = table.col_type(name).ok_or_else(|| {
                err(
                    &op.path,
                    VerifyErrorKind::UnknownColumn {
                        table: op.table.clone(),
                        column: name.clone(),
                    },
                )
            })?;
            if numeric && ty == crate::ir::ColType::Dict {
                return Err(err(
                    &op.path,
                    VerifyErrorKind::TypeMismatch {
                        table: op.table.clone(),
                        column: name.clone(),
                        context: "an arithmetic/aggregate input".to_string(),
                    },
                ));
            }
            Ok(())
        }
        VExpr::DictPredicate(name) => {
            *column_refs = column_refs.wrapping_add(1);
            let ty = table.col_type(name).ok_or_else(|| {
                err(
                    &op.path,
                    VerifyErrorKind::UnknownColumn {
                        table: op.table.clone(),
                        column: name.clone(),
                    },
                )
            })?;
            if ty != crate::ir::ColType::Dict {
                return Err(err(
                    &op.path,
                    VerifyErrorKind::NonDictPredicate {
                        table: op.table.clone(),
                        column: name.clone(),
                    },
                ));
            }
            Ok(())
        }
        VExpr::Arith(_, children) => {
            for c in children {
                walk_expr(c, op, table, true, column_refs)?;
            }
            Ok(())
        }
        VExpr::Cmp(children) | VExpr::Bool(children) | VExpr::Case(children) => {
            for c in children {
                walk_expr(c, op, table, false, column_refs)?;
            }
            Ok(())
        }
    }
}

/// Pass 2: domain discipline.
///
/// Artifacts must be produced before consumed, sized to the table/FK domain
/// that indexes them, and only plan-scoped artifacts may cross operator
/// boundaries (tile/morsel artifacts are worker-private by the determinism
/// contract).
pub fn check_domains(program: &Program) -> Result<DomainSummary, VerifyError> {
    let mut summary = DomainSummary {
        artifacts: 0,
        imports: 0,
    };
    let mut exported: Vec<&Artifact> = Vec::new();
    for op in &program.ops {
        // Imports resolve against exports of strictly earlier operators.
        for import in &op.imports {
            let found = exported
                .iter()
                .find(|a| a.kind == import.kind && a.table == import.table)
                .copied()
                .ok_or_else(|| {
                    err(
                        &op.path,
                        VerifyErrorKind::ConsumedBeforeProduced {
                            kind: import.kind,
                            table: import.table.clone(),
                        },
                    )
                })?;
            if let Some(fk_ref) = &import.via_fk {
                let fk = program
                    .fk(&fk_ref.child, &fk_ref.fk_col, &fk_ref.parent)
                    .ok_or_else(|| {
                        err(
                            &op.path,
                            VerifyErrorKind::MissingFk {
                                child: fk_ref.child.clone(),
                                fk_col: fk_ref.fk_col.clone(),
                                parent: fk_ref.parent.clone(),
                            },
                        )
                    })?;
                // Positional artifacts are indexed by FK target position, so
                // they must cover exactly the parent domain.
                if found.rows != fk.parent_rows {
                    return Err(err(
                        &op.path,
                        VerifyErrorKind::DomainMismatch {
                            kind: found.kind,
                            table: found.table.clone(),
                            expected_rows: fk.parent_rows,
                            found_rows: found.rows,
                        },
                    ));
                }
            }
            summary.imports = summary.imports.wrapping_add(1);
        }
        for artifact in &op.locals {
            check_local(program, op, artifact)?;
            summary.artifacts = summary.artifacts.wrapping_add(1);
        }
        for artifact in &op.exports {
            if artifact.scope != Scope::Plan {
                return Err(err(
                    &op.path,
                    VerifyErrorKind::ScopeViolation {
                        kind: artifact.kind,
                        scope: artifact.scope,
                    },
                ));
            }
            let decl = program.table(&artifact.table).ok_or_else(|| {
                err(
                    &op.path,
                    VerifyErrorKind::DomainMismatch {
                        kind: artifact.kind,
                        table: artifact.table.clone(),
                        expected_rows: 0,
                        found_rows: artifact.rows,
                    },
                )
            })?;
            if artifact.rows != decl.rows {
                return Err(err(
                    &op.path,
                    VerifyErrorKind::DomainMismatch {
                        kind: artifact.kind,
                        table: artifact.table.clone(),
                        expected_rows: decl.rows,
                        found_rows: artifact.rows,
                    },
                ));
            }
            summary.artifacts = summary.artifacts.wrapping_add(1);
            exported.push(artifact);
        }
    }
    Ok(summary)
}

fn check_local(program: &Program, op: &Op, artifact: &Artifact) -> Result<(), VerifyError> {
    // A local artifact's domain is the operator's own scan table.
    if artifact.table != op.table {
        return Err(err(
            &op.path,
            VerifyErrorKind::DomainMismatch {
                kind: artifact.kind,
                table: artifact.table.clone(),
                expected_rows: op.rows,
                found_rows: artifact.rows,
            },
        ));
    }
    let expected = match artifact.scope {
        Scope::Tile => program.tile_rows,
        // Morsel-scoped artifacts cover at most the operator's rows; the
        // lowering never emits them today but hand-built programs may.
        Scope::Morsel => {
            if artifact.rows > op.rows {
                return Err(err(
                    &op.path,
                    VerifyErrorKind::DomainMismatch {
                        kind: artifact.kind,
                        table: artifact.table.clone(),
                        expected_rows: op.rows,
                        found_rows: artifact.rows,
                    },
                ));
            }
            return Ok(());
        }
        Scope::Plan => program.table(&op.table).map_or(op.rows, |t| t.rows),
    };
    if artifact.rows != expected {
        return Err(err(
            &op.path,
            VerifyErrorKind::DomainMismatch {
                kind: artifact.kind,
                table: artifact.table.clone(),
                expected_rows: expected,
                found_rows: artifact.rows,
            },
        ));
    }
    Ok(())
}

/// The access signature the cost model assumes for a strategy — an
/// independent encoding of the patterns each pricing formula charges for
/// (`swole_cost::model`). Pass 3 compares this against the signature of the
/// loop that runs; if they differ, verification fails.
#[must_use]
pub fn modelled_signature(strategy: &StrategyRef) -> AccessSig {
    match strategy {
        // est_hybrid prices a sequential predicate prepass plus conditional
        // (selection-vector-indirected) aggregate reads; est_value_masking
        // prices sequential reads of every lane with wasted multiply lanes;
        // grouped key-masking folds the mask into a sequentially-read key.
        // Scalar key-masking executes on the hybrid path.
        StrategyRef::Agg { strategy, grouped } => match (*strategy, *grouped) {
            (AggStrategy::Hybrid, g) | (AggStrategy::KeyMasking, g @ false) => AccessSig {
                predicate: Some(Access::Sequential),
                agg_input: Some(Access::Conditional),
                group_key: if g { Some(Access::Conditional) } else { None },
                structure: None,
            },
            (AggStrategy::ValueMasking, g) => AccessSig {
                predicate: Some(Access::Sequential),
                agg_input: Some(Access::Sequential),
                group_key: if g { Some(Access::Sequential) } else { None },
                structure: None,
            },
            (AggStrategy::KeyMasking, true) => AccessSig {
                predicate: Some(Access::Sequential),
                agg_input: Some(Access::Sequential),
                group_key: Some(Access::Sequential),
                structure: None,
            },
        },
        // Build cost: sequential filter scan; hash inserts are random
        // (gather) while bitmap construction is sequential from the mask
        // (unconditional) or conditional through a selection vector.
        StrategyRef::SemiJoinBuild(s) => AccessSig {
            predicate: Some(Access::Sequential),
            agg_input: None,
            group_key: None,
            structure: Some(match s {
                swole_cost::SemiJoinStrategy::Hash => Access::Gather,
                swole_cost::SemiJoinStrategy::PositionalBitmap(b) => match b {
                    swole_cost::BitmapBuild::Unconditional => Access::Sequential,
                    swole_cost::BitmapBuild::SelectionVector => Access::Conditional,
                },
            }),
        },
        // Probe cost: sequential local predicate, a gather per lane into the
        // membership structure (hash table or bitmap word), then masked
        // (sequential) or selection-vector (conditional) aggregation.
        StrategyRef::SemiJoinProbe {
            strategy: _,
            probe_masked,
        } => AccessSig {
            predicate: Some(Access::Sequential),
            agg_input: Some(if *probe_masked {
                Access::Sequential
            } else {
                Access::Conditional
            }),
            group_key: None,
            structure: Some(Access::Gather),
        },
        // Groupjoin gathers the edge's membership structure and the group
        // entry per probe row and aggregates only qualifying rows; eager
        // aggregation aggregates every probe row (sequential) and filters
        // groups post-merge.
        StrategyRef::GroupJoin(g) => AccessSig {
            predicate: None,
            agg_input: Some(match g {
                GroupJoinStrategy::GroupJoin => Access::Conditional,
                GroupJoinStrategy::EagerAggregation => Access::Sequential,
            }),
            group_key: None,
            structure: Some(Access::Gather),
        },
        // Window frames: the sequential frame scan walks the sorted run once
        // with running accumulators (sequential function-input reads), while
        // conditional re-evaluation re-reads each output row's frame through
        // row offsets (conditional reads). Partition/order keys are compared
        // per row-boundary either way (conditional — only on run edges).
        StrategyRef::Window { strategy } => AccessSig {
            predicate: Some(Access::Sequential),
            agg_input: Some(match strategy {
                WindowStrategy::SequentialFrameScan => Access::Sequential,
                WindowStrategy::ConditionalReeval => Access::Conditional,
            }),
            group_key: Some(Access::Conditional),
            structure: None,
        },
        // Sort reorders materialized result rows by key comparison only.
        StrategyRef::Sort => AccessSig {
            predicate: None,
            agg_input: None,
            group_key: Some(Access::Conditional),
            structure: None,
        },
        // Limit truncates the result prefix; it touches no table data.
        StrategyRef::Limit => AccessSig {
            predicate: None,
            agg_input: None,
            group_key: None,
            structure: None,
        },
    }
}

/// The cost term that priced a strategy, if the model prices it at all.
#[must_use]
pub fn expected_cost_term(strategy: &StrategyRef) -> Option<&'static str> {
    match strategy {
        // Scalar key masking executes on the hybrid path (there is no key
        // to mask without a group-by), so the hybrid term prices it.
        StrategyRef::Agg {
            strategy: AggStrategy::KeyMasking,
            grouped: false,
        } => Some(AggStrategy::Hybrid.cost_term()),
        StrategyRef::Agg { strategy, .. } => Some(strategy.cost_term()),
        StrategyRef::GroupJoin(g) => Some(g.cost_term()),
        StrategyRef::Window { strategy } => Some(strategy.cost_term()),
        StrategyRef::Sort => Some("sort.rows"),
        StrategyRef::Limit => Some("limit.rows"),
        // Semijoin build/probe costs are folded into the chooser profile and
        // carry no plan-level term today.
        StrategyRef::SemiJoinBuild(_) | StrategyRef::SemiJoinProbe { .. } => None,
    }
}

fn fmt_access(a: Option<Access>) -> String {
    match a {
        None => "none".to_string(),
        Some(a) => a.to_string(),
    }
}

/// Pass 3: access-pattern signatures.
///
/// For each operator with a committed strategy, the signature of the loop
/// that runs ([`Committed::runs`]) must match the one the cost model assumes
/// for the priced strategy, and the plan must carry the cost term that
/// priced it.
pub fn check_signatures(program: &Program) -> Result<SignatureSummary, VerifyError> {
    let mut summary = SignatureSummary { checked: 0 };
    for op in &program.ops {
        let Some(Committed { priced, runs }) = &op.strategy else {
            continue;
        };
        let modelled = modelled_signature(priced);
        for (attribute, m, r) in [
            ("predicate", modelled.predicate, runs.predicate),
            ("aggregate input", modelled.agg_input, runs.agg_input),
            ("group key", modelled.group_key, runs.group_key),
            ("structure", modelled.structure, runs.structure),
        ] {
            if m != r {
                return Err(err(
                    &op.path,
                    VerifyErrorKind::SignatureMismatch {
                        op: op.name.clone(),
                        attribute: attribute.to_string(),
                        modelled: fmt_access(m),
                        runs: fmt_access(r),
                    },
                ));
            }
        }
        if let Some(term) = expected_cost_term(priced) {
            if !op.cost_terms.is_empty() && !op.cost_terms.iter().any(|t| t == term) {
                return Err(err(
                    &op.path,
                    VerifyErrorKind::CostTermMismatch {
                        op: op.name.clone(),
                        strategy: strategy_label(priced).to_string(),
                        expected_term: term.to_string(),
                    },
                ));
            }
        }
        summary.checked = summary.checked.wrapping_add(1);
    }
    Ok(summary)
}

fn strategy_label(strategy: &StrategyRef) -> &'static str {
    match strategy {
        StrategyRef::Agg { strategy, .. } => strategy.name(),
        StrategyRef::SemiJoinBuild(s) | StrategyRef::SemiJoinProbe { strategy: s, .. } => s.name(),
        StrategyRef::GroupJoin(g) => g.name(),
        StrategyRef::Window { strategy } => strategy.name(),
        StrategyRef::Sort => "sort",
        StrategyRef::Limit => "limit",
    }
}

/// Pass 4: resource accounting coverage.
///
/// Every allocation site reachable from the plan must charge the `MemGauge`,
/// and every materialized artifact must have a covering allocation site (so
/// no pullup artifact is budget-invisible).
pub fn check_resources(program: &Program) -> Result<ResourceSummary, VerifyError> {
    let mut summary = ResourceSummary {
        sites: 0,
        covered_artifacts: 0,
    };
    for op in &program.ops {
        for alloc in &op.allocs {
            if !alloc.charged {
                return Err(err(
                    &op.path,
                    VerifyErrorKind::UnchargedAllocation {
                        op: op.name.clone(),
                        site: alloc.site.clone(),
                    },
                ));
            }
            summary.sites = summary.sites.wrapping_add(1);
        }
        for artifact in op.locals.iter().chain(&op.exports) {
            let needle = match (artifact.scope, artifact.kind) {
                // Tile/morsel artifacts live in pre-charged worker scratch.
                (Scope::Tile | Scope::Morsel, _) => "scratch",
                (Scope::Plan, ArtifactKind::SelectionVector) => "selection",
                (Scope::Plan, ArtifactKind::ValueMask | ArtifactKind::KeyMask) => "mask",
                (Scope::Plan, ArtifactKind::PositionalBitmap) => "bitmap",
                (Scope::Plan, ArtifactKind::PositionalBytes) => "bytes",
                (Scope::Plan, ArtifactKind::KeySet) => "key-set",
            };
            if !op.allocs.iter().any(|a| a.site.contains(needle)) {
                return Err(err(
                    &op.path,
                    VerifyErrorKind::UnchargedAllocation {
                        op: op.name.clone(),
                        site: format!("{} ({})", artifact.kind, needle),
                    },
                ));
            }
            summary.covered_artifacts = summary.covered_artifacts.wrapping_add(1);
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{
        Alloc, ArithOp, Artifact, BoundExpr, ColType, ColumnDecl, FkDecl, FkRef, Import, TableDecl,
    };
    use crate::{verify, VerifyLevel};
    use swole_cost::{BitmapBuild, SemiJoinStrategy};

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

    /// A representative well-formed program: bitmap semijoin build over
    /// `supplier` exporting a positional bitmap, probed from `lineitem`
    /// through `l_suppkey` with a masked probe.
    fn semijoin_program() -> Program {
        let build_rows = 5_000;
        let probe_rows = 60_000;
        let mut build = Op::new(
            "multijoin-build(supplier)",
            "/multijoin-agg/build",
            "supplier",
            build_rows,
        );
        build.exprs.push(BoundExpr {
            role: ExprRole::Predicate,
            expr: VExpr::Cmp(vec![VExpr::Col("s_nationkey".into()), VExpr::Lit(15)]),
        });
        build.strategy = Some(Committed::as_modelled(StrategyRef::SemiJoinBuild(
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
        )));
        build.locals.push(Artifact {
            kind: ArtifactKind::ValueMask,
            table: "supplier".into(),
            rows: build_rows,
            scope: Scope::Plan,
        });
        build.exports.push(Artifact {
            kind: ArtifactKind::PositionalBitmap,
            table: "supplier".into(),
            rows: build_rows,
            scope: Scope::Plan,
        });
        build.allocs.push(Alloc {
            site: "build-mask".into(),
            charged: true,
        });
        build.allocs.push(Alloc {
            site: "positional-bitmap".into(),
            charged: true,
        });

        let mut probe = Op::new(
            "multijoin-agg(lineitem)",
            "/multijoin-agg/probe",
            "lineitem",
            probe_rows,
        );
        probe.exprs.push(BoundExpr {
            role: ExprRole::Predicate,
            expr: VExpr::Cmp(vec![VExpr::Col("l_quantity".into()), VExpr::Lit(24)]),
        });
        probe.exprs.push(BoundExpr {
            role: ExprRole::AggInput,
            expr: VExpr::Arith(
                ArithOp::Mul,
                vec![
                    VExpr::Col("l_extendedprice".into()),
                    VExpr::Col("l_discount".into()),
                ],
            ),
        });
        probe.strategy = Some(Committed::as_modelled(StrategyRef::SemiJoinProbe {
            strategy: SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
            probe_masked: true,
        }));
        probe.imports.push(Import {
            kind: ArtifactKind::PositionalBitmap,
            table: "supplier".into(),
            via_fk: Some(FkRef {
                child: "lineitem".into(),
                fk_col: "l_suppkey".into(),
                parent: "supplier".into(),
            }),
        });
        probe.locals.push(Artifact {
            kind: ArtifactKind::ValueMask,
            table: "lineitem".into(),
            rows: TILE,
            scope: Scope::Tile,
        });
        probe.allocs.push(Alloc {
            site: "worker-scratch".into(),
            charged: true,
        });

        Program {
            tables: vec![
                table(
                    "lineitem",
                    probe_rows,
                    &[
                        ("l_quantity", ColType::Int(64)),
                        ("l_extendedprice", ColType::Int(64)),
                        ("l_discount", ColType::Int(64)),
                        ("l_suppkey", ColType::U32),
                        ("l_comment", ColType::Dict),
                    ],
                ),
                table("supplier", build_rows, &[("s_nationkey", ColType::Int(64))]),
            ],
            fks: vec![FkDecl {
                child: "lineitem".into(),
                fk_col: "l_suppkey".into(),
                parent: "supplier".into(),
                child_rows: probe_rows,
                parent_rows: build_rows,
            }],
            ops: vec![build, probe],
            tile_rows: TILE,
        }
    }

    #[test]
    fn well_formed_program_passes_full() {
        let p = semijoin_program();
        let report = verify(&p, VerifyLevel::Full).expect("well-formed program must verify");
        assert_eq!(report.ops, 2);
        assert!(report.exprs >= 3);
        assert!(report.artifacts >= 3);
        assert_eq!(report.allocs, 3);
        assert_eq!(report.lines.len(), 4);
    }

    #[test]
    fn off_level_checks_nothing() {
        let mut p = semijoin_program();
        p.ops[1].imports.clear(); // would fail pass 4 artifact coverage? no — break pass 1 instead
        p.ops[0].exprs[0] = BoundExpr {
            role: ExprRole::Predicate,
            expr: VExpr::Col("nope".into()),
        };
        let report = verify(&p, VerifyLevel::Off).expect("off level never rejects");
        assert_eq!(report.ops, 0);
        assert!(report.lines.is_empty());
    }

    #[test]
    fn rejects_unknown_column() {
        let mut p = semijoin_program();
        p.ops[1].exprs[0] = BoundExpr {
            role: ExprRole::Predicate,
            expr: VExpr::Cmp(vec![VExpr::Col("l_ghost".into()), VExpr::Lit(1)]),
        };
        let e = verify(&p, VerifyLevel::Structural).unwrap_err();
        assert_eq!(
            e.kind,
            VerifyErrorKind::UnknownColumn {
                table: "lineitem".into(),
                column: "l_ghost".into()
            }
        );
        assert_eq!(e.path, "/multijoin-agg/probe");
    }

    #[test]
    fn rejects_unbound_param() {
        let mut p = semijoin_program();
        p.ops[0].exprs[0] = BoundExpr {
            role: ExprRole::Predicate,
            expr: VExpr::Cmp(vec![VExpr::Col("s_nationkey".into()), VExpr::Param(2)]),
        };
        let e = verify(&p, VerifyLevel::Structural).unwrap_err();
        assert_eq!(e.kind, VerifyErrorKind::UnboundParam { ordinal: 2 });
    }

    #[test]
    fn rejects_dict_column_as_aggregate_input() {
        let mut p = semijoin_program();
        p.ops[1].exprs[1] = BoundExpr {
            role: ExprRole::AggInput,
            expr: VExpr::Col("l_comment".into()),
        };
        let e = verify(&p, VerifyLevel::Structural).unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::TypeMismatch { ref column, .. } if column == "l_comment"
        ));
    }

    #[test]
    fn rejects_dict_predicate_on_plain_column() {
        let mut p = semijoin_program();
        p.ops[1].exprs[0] = BoundExpr {
            role: ExprRole::Predicate,
            expr: VExpr::DictPredicate("l_quantity".into()),
        };
        let e = verify(&p, VerifyLevel::Structural).unwrap_err();
        assert_eq!(
            e.kind,
            VerifyErrorKind::NonDictPredicate {
                table: "lineitem".into(),
                column: "l_quantity".into()
            }
        );
    }

    #[test]
    fn rejects_consumed_before_produced() {
        let mut p = semijoin_program();
        p.ops[0].exports.clear();
        let e = verify(&p, VerifyLevel::Structural).unwrap_err();
        assert_eq!(
            e.kind,
            VerifyErrorKind::ConsumedBeforeProduced {
                kind: ArtifactKind::PositionalBitmap,
                table: "supplier".into()
            }
        );
    }

    #[test]
    fn rejects_wrong_mask_domain() {
        let mut p = semijoin_program();
        // Build mask sized to the probe table instead of the build table.
        p.ops[0].locals[0].rows = 60_000;
        let e = verify(&p, VerifyLevel::Structural).unwrap_err();
        assert_eq!(
            e.kind,
            VerifyErrorKind::DomainMismatch {
                kind: ArtifactKind::ValueMask,
                table: "supplier".into(),
                expected_rows: 5_000,
                found_rows: 60_000,
            }
        );
    }

    #[test]
    fn rejects_bitmap_fk_length_mismatch() {
        let mut p = semijoin_program();
        // Bitmap covers fewer rows than the FK parent domain: probing
        // through l_suppkey would index past the end.
        p.ops[0].exports[0].rows = 4_096;
        p.tables[1].rows = 4_096; // keep the export's own domain consistent
        p.ops[0].rows = 4_096;
        p.ops[0].locals[0].rows = 4_096;
        let e = verify(&p, VerifyLevel::Structural).unwrap_err();
        assert_eq!(
            e.kind,
            VerifyErrorKind::DomainMismatch {
                kind: ArtifactKind::PositionalBitmap,
                table: "supplier".into(),
                expected_rows: 5_000,
                found_rows: 4_096,
            }
        );
        assert_eq!(e.path, "/multijoin-agg/probe");
    }

    #[test]
    fn rejects_tile_artifact_crossing_operator_boundary() {
        let mut p = semijoin_program();
        p.ops[0].exports[0].scope = Scope::Tile;
        let e = verify(&p, VerifyLevel::Structural).unwrap_err();
        assert_eq!(
            e.kind,
            VerifyErrorKind::ScopeViolation {
                kind: ArtifactKind::PositionalBitmap,
                scope: Scope::Tile
            }
        );
    }

    #[test]
    fn rejects_missing_fk() {
        let mut p = semijoin_program();
        p.fks.clear();
        let e = verify(&p, VerifyLevel::Structural).unwrap_err();
        assert_eq!(
            e.kind,
            VerifyErrorKind::MissingFk {
                child: "lineitem".into(),
                fk_col: "l_suppkey".into(),
                parent: "supplier".into()
            }
        );
    }

    #[test]
    fn rejects_drifted_declared_signature() {
        let mut p = semijoin_program();
        // The masked probe's loop reads its aggregate input conditionally, as
        // a selection vector would — the priced strategy models a masked
        // (sequential) read, so they disagree.
        let runs = &mut p.ops[1].strategy.as_mut().unwrap().runs;
        runs.agg_input = Some(Access::Conditional);
        let e = verify(&p, VerifyLevel::Full).unwrap_err();
        assert!(matches!(
            e.kind,
            VerifyErrorKind::SignatureMismatch { ref attribute, .. } if attribute == "aggregate input"
        ));
        // Structural level does not run pass 3.
        assert!(verify(&p, VerifyLevel::Structural).is_ok());
    }

    #[test]
    fn rejects_missing_cost_term() {
        let mut p = semijoin_program();
        let mut agg = Op::new("agg(lineitem)", "/scan-agg", "lineitem", 60_000);
        agg.exprs.push(BoundExpr {
            role: ExprRole::AggInput,
            expr: VExpr::Col("l_quantity".into()),
        });
        agg.strategy = Some(Committed::as_modelled(StrategyRef::Agg {
            strategy: AggStrategy::Hybrid,
            grouped: false,
        }));
        agg.cost_terms = vec!["agg.value-masking".into()]; // wrong term for the committed strategy
        agg.locals.push(Artifact {
            kind: ArtifactKind::SelectionVector,
            table: "lineitem".into(),
            rows: TILE,
            scope: Scope::Tile,
        });
        agg.allocs.push(Alloc {
            site: "worker-scratch".into(),
            charged: true,
        });
        p.ops = vec![agg];
        let e = verify(&p, VerifyLevel::Full).unwrap_err();
        assert_eq!(
            e.kind,
            VerifyErrorKind::CostTermMismatch {
                op: "agg(lineitem)".into(),
                strategy: "hybrid".into(),
                expected_term: "agg.hybrid".into(),
            }
        );
    }

    #[test]
    fn rejects_uncharged_allocation() {
        let mut p = semijoin_program();
        p.ops[0].allocs[1].charged = false;
        let e = verify(&p, VerifyLevel::Full).unwrap_err();
        assert_eq!(
            e.kind,
            VerifyErrorKind::UnchargedAllocation {
                op: "multijoin-build(supplier)".into(),
                site: "positional-bitmap".into(),
            }
        );
        // Structural level does not run pass 4.
        assert!(verify(&p, VerifyLevel::Structural).is_ok());
    }

    #[test]
    fn rejects_artifact_without_covering_allocation() {
        let mut p = semijoin_program();
        p.ops[1].allocs.clear(); // tile mask now has no scratch site
        let e = verify(&p, VerifyLevel::Full).unwrap_err();
        assert!(
            matches!(e.kind, VerifyErrorKind::UnchargedAllocation { ref site, .. }
            if site.contains("scratch"))
        );
    }
}
