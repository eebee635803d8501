//! The binder: what a parsed [`Query`] means, as a [`LogicalPlan`].
//!
//! A FROM list is a join graph of zero, one or many edges and binds through
//! one path ([`bind_from`]) into the input of an aggregation or — a single
//! table only — of a window or projection.

use super::parser::{OverSpec, PExpr, Query, SelectItem};
use super::SqlError;
use crate::expr::{CmpOp, Expr};
use crate::logical::{AggSpec, FrameSpec, LogicalPlan, WindowFnSpec};

/// Which tables an expression references (by qualifier; `None` is an
/// unqualified column).
fn tables_of<'a>(e: &'a PExpr, out: &mut Vec<Option<&'a str>>) {
    match e {
        PExpr::Col { table, .. } => {
            let table = table.as_deref();
            if !out.contains(&table) {
                out.push(table);
            }
        }
        PExpr::Lit(_) | PExpr::Str(_) | PExpr::Param(_) => {}
        PExpr::Cmp(_, a, b)
        | PExpr::Add(a, b)
        | PExpr::Sub(a, b)
        | PExpr::Mul(a, b)
        | PExpr::Div(a, b)
        | PExpr::And(a, b)
        | PExpr::Or(a, b) => {
            tables_of(a, out);
            tables_of(b, out);
        }
        PExpr::Neg(a) | PExpr::Not(a) => tables_of(a, out),
        PExpr::Like { col, .. } | PExpr::InList { col, .. } => tables_of(col, out),
        PExpr::Case {
            when,
            then,
            otherwise,
        } => {
            tables_of(when, out);
            tables_of(then, out);
            tables_of(otherwise, out);
        }
    }
}

/// Convert a bound `PExpr` to an engine `Expr`, stripping qualifiers and
/// rewriting string comparisons into dictionary predicates.
fn to_expr(e: &PExpr, pos: usize) -> Result<Expr, SqlError> {
    let fail = |message: String| SqlError::at(pos, message);
    Ok(match e {
        PExpr::Col { name, .. } => Expr::Col(name.clone()),
        PExpr::Lit(v) => Expr::Lit(*v),
        PExpr::Param(i) => Expr::Param(*i),
        PExpr::Str(s) => {
            return Err(fail(format!(
                "string literal '{s}' is only valid with =, <>, LIKE or IN"
            )))
        }
        PExpr::Cmp(op, a, b) => {
            // `col = 'str'` / `'str' = col` → dictionary membership.
            let str_side = match (&**a, &**b) {
                (PExpr::Str(s), other) | (other, PExpr::Str(s)) => Some((s.clone(), other)),
                _ => None,
            };
            if let Some((s, col)) = str_side {
                let col_name = match col {
                    PExpr::Col { name, .. } => name.clone(),
                    _ => return Err(fail("string comparison requires a column".into())),
                };
                let inlist = Expr::InList {
                    col: col_name,
                    values: vec![s],
                };
                return match op {
                    CmpOp::Eq => Ok(inlist),
                    CmpOp::Ne => Ok(Expr::Not(Box::new(inlist))),
                    _ => Err(fail("strings only support = and <>".into())),
                };
            }
            Expr::Cmp(*op, Box::new(to_expr(a, pos)?), Box::new(to_expr(b, pos)?))
        }
        PExpr::Add(a, b) => Expr::Add(Box::new(to_expr(a, pos)?), Box::new(to_expr(b, pos)?)),
        PExpr::Sub(a, b) => Expr::Sub(Box::new(to_expr(a, pos)?), Box::new(to_expr(b, pos)?)),
        PExpr::Mul(a, b) => Expr::Mul(Box::new(to_expr(a, pos)?), Box::new(to_expr(b, pos)?)),
        PExpr::Div(a, b) => Expr::Div(Box::new(to_expr(a, pos)?), Box::new(to_expr(b, pos)?)),
        PExpr::Neg(a) => Expr::Sub(Box::new(Expr::Lit(0)), Box::new(to_expr(a, pos)?)),
        PExpr::And(a, b) => to_expr(a, pos)?.and(to_expr(b, pos)?),
        PExpr::Or(a, b) => to_expr(a, pos)?.or(to_expr(b, pos)?),
        PExpr::Not(a) => Expr::Not(Box::new(to_expr(a, pos)?)),
        PExpr::Like { col, pattern } => match &**col {
            PExpr::Col { name, .. } => Expr::Like {
                col: name.clone(),
                pattern: pattern.clone(),
            },
            _ => return Err(fail("LIKE requires a column".into())),
        },
        PExpr::InList { col, values } => match &**col {
            PExpr::Col { name, .. } => Expr::InList {
                col: name.clone(),
                values: values.clone(),
            },
            _ => return Err(fail("IN requires a column".into())),
        },
        PExpr::Case {
            when,
            then,
            otherwise,
        } => Expr::Case {
            when: Box::new(to_expr(when, pos)?),
            then: Box::new(to_expr(then, pos)?),
            otherwise: Box::new(to_expr(otherwise, pos)?),
        },
    })
}

/// Flatten a top-level AND chain.
fn conjuncts(e: PExpr, out: &mut Vec<PExpr>) {
    match e {
        PExpr::And(a, b) => {
            conjuncts(*a, out);
            conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

fn agg_specs(items: &[SelectItem], group_by: Option<&str>) -> Result<Vec<AggSpec>, SqlError> {
    let mut aggs = Vec::new();
    let mut auto = 0usize;
    for item in items {
        match item {
            SelectItem::Key { name, .. } => {
                if group_by != Some(name.as_str()) {
                    return Err(SqlError::at(
                        0,
                        format!("bare column {name} must match the GROUP BY key"),
                    ));
                }
            }
            SelectItem::Agg {
                func,
                expr,
                alias,
                pos,
            } => {
                let name = alias.clone().unwrap_or_else(|| {
                    auto += 1;
                    format!("agg{auto}")
                });
                let expr = match expr {
                    Some(e) => to_expr(e, *pos)?,
                    None => Expr::Lit(1),
                };
                aggs.push(AggSpec {
                    func: *func,
                    expr,
                    name,
                });
            }
            SelectItem::Window { pos, .. } => {
                return Err(SqlError::at(
                    *pos,
                    "window functions cannot be combined with GROUP BY",
                ));
            }
        }
    }
    if aggs.is_empty() {
        return Err(SqlError::at(
            0,
            "query needs at least one aggregate (sum/count/min/max)",
        ));
    }
    Ok(aggs)
}

/// Wrap a bound core plan in the query's result-level `ORDER BY` / `LIMIT`.
fn wrap_post(mut plan: LogicalPlan, q: &Query) -> LogicalPlan {
    if !q.order_by.is_empty() {
        plan = LogicalPlan::OrderBy {
            input: Box::new(plan),
            keys: q.order_by.clone(),
        };
    }
    if let Some(n) = q.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n: n.max(0) as usize,
        };
    }
    plan
}

/// Bind a window/projection query over its single table's `input`: bare
/// columns become the projection, window items the function list. All window
/// functions must share one OVER clause (one sort, one frame).
fn bind_window(q: &Query, input: LogicalPlan) -> Result<LogicalPlan, SqlError> {
    let fail = |message: String| SqlError::at(q.pos, message);
    if q.group_by.is_some() {
        return Err(fail(
            "window functions cannot be combined with GROUP BY".into(),
        ));
    }
    let mut select = Vec::new();
    let mut funcs = Vec::new();
    let mut over: Option<&OverSpec> = None;
    let mut auto = 0usize;
    for item in &q.items {
        match item {
            SelectItem::Key { name, .. } => select.push(name.clone()),
            SelectItem::Agg { .. } => {
                return Err(fail(
                    "cannot mix plain aggregates and window functions \
                     (did you mean SUM(..) OVER (..)?)"
                        .into(),
                ))
            }
            SelectItem::Window {
                func,
                expr,
                alias,
                over: o,
                pos,
            } => {
                match over {
                    None => over = Some(o),
                    Some(prev) if prev == o => {}
                    Some(_) => {
                        return Err(fail(
                            "all window functions in one query must share the same \
                             OVER clause"
                                .into(),
                        ))
                    }
                }
                let name = alias.clone().unwrap_or_else(|| {
                    auto += 1;
                    format!("w{auto}")
                });
                funcs.push(WindowFnSpec {
                    func: *func,
                    expr: expr.as_ref().map(|e| to_expr(e, *pos)).transpose()?,
                    name,
                });
            }
        }
    }
    let (partition_by, order_by, frame) = match over {
        Some(o) => {
            let frame = match o.rows_preceding {
                Some(k) => FrameSpec::Preceding(k.max(0) as usize),
                None if o.order_by.is_empty() => FrameSpec::WholePartition,
                None => FrameSpec::UnboundedPreceding,
            };
            (o.partition_by.clone(), o.order_by.clone(), frame)
        }
        // Pure projection: no window order, whole-partition frame.
        None => (None, Vec::new(), FrameSpec::WholePartition),
    };
    Ok(LogicalPlan::Window {
        input: Box::new(input),
        partition_by,
        order_by,
        frame,
        funcs,
        select,
    })
}

/// `child.fk = parent.rowid`, written either way round (`rowid` is each
/// table's implicit dense primary key): `(child, fk, parent)`.
fn join_conjunct(part: &PExpr) -> Option<(&str, &str, &str)> {
    let PExpr::Cmp(CmpOp::Eq, a, b) = part else {
        return None;
    };
    let (
        PExpr::Col {
            table: Some(t1),
            name: n1,
        },
        PExpr::Col {
            table: Some(t2),
            name: n2,
        },
    ) = (&**a, &**b)
    else {
        return None;
    };
    if n2 == "rowid" {
        Some((t1, n1, t2))
    } else if n1 == "rowid" {
        Some((t2, n2, t1))
    } else {
        None
    }
}

/// One FK join edge between two entries of the FROM list.
struct Edge {
    child: usize,
    fk_col: String,
    parent: usize,
}

pub(super) fn bind(mut q: Query) -> Result<LogicalPlan, SqlError> {
    let has_window = q
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Window { .. }));
    let has_agg = q.items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
    // Window functions — or a bare-column projection — take the window
    // path; aggregates keep the aggregation path.
    let windowed = has_window || (!has_agg && q.group_by.is_none());
    if windowed && q.tables.len() != 1 {
        return Err(SqlError::at(
            q.pos,
            "window functions and projections are only supported over a single table",
        ));
    }
    let input = bind_from(&mut q)?;
    let core = if windowed {
        bind_window(&q, input)?
    } else {
        let group_by = q.group_by.as_ref().map(|(_, col)| col.clone());
        LogicalPlan::Aggregate {
            input: Box::new(input),
            aggs: agg_specs(&q.items, group_by.as_deref())?,
            group_by,
        }
    };
    Ok(wrap_post(core, &q))
}

/// Bind the FROM list and the WHERE clause as a join graph. Join conjuncts
/// (`child.fk = parent.rowid`) form the edges, the one table never used as a
/// build side is the fact, and every other conjunct filters the table it
/// names; over a join a qualified GROUP BY key must name the fact. A single
/// table is the zero-edge graph: its WHERE binds whole, qualifiers ignored.
/// The binder only fixes the *structure* (a tree rooted at the fact, edges in
/// canonical parent-name order) — the probe order is the planner's decision.
fn bind_from(q: &mut Query) -> Result<LogicalPlan, SqlError> {
    let pos = q.pos;
    let fail = |message: String| SqlError::at(pos, message);
    let tables = &q.tables;
    let at = |name: &str| tables.iter().position(|t| t == name);
    // Per-table filters, parallel to the FROM list.
    let mut filters: Vec<Option<Expr>> = vec![None; tables.len()];
    let mut edges: Vec<Edge> = Vec::new();
    let mut parts = Vec::new();
    match q.predicate.take() {
        Some(whole) if tables.len() == 1 => filters[0] = Some(to_expr(&whole, pos)?),
        Some(predicate) => conjuncts(predicate, &mut parts),
        None => {}
    }
    for part in parts {
        if let Some((child, fk_col, parent)) = join_conjunct(&part) {
            match (at(child), at(parent)) {
                (Some(child), Some(parent)) if child != parent => edges.push(Edge {
                    child,
                    fk_col: fk_col.to_string(),
                    parent,
                }),
                _ => {
                    return Err(fail(format!(
                        "join references {child}/{parent}, FROM lists {tables:?}"
                    )))
                }
            }
            continue;
        }
        let mut named = Vec::new();
        tables_of(&part, &mut named);
        let t = match named[..] {
            [Some(t)] => at(t).ok_or_else(|| fail(format!("unknown table qualifier {t}")))?,
            _ => {
                return Err(fail(
                    "multi-table predicates must qualify every column with its \
                     table and reference exactly one table per conjunct"
                        .into(),
                ))
            }
        };
        let bound = to_expr(&part, pos)?;
        filters[t] = Some(match filters[t].take() {
            Some(existing) => existing.and(bound),
            None => bound,
        });
    }
    for (i, e) in edges.iter().enumerate() {
        if edges[i + 1..].iter().any(|later| later.parent == e.parent) {
            return Err(fail(format!(
                "table {} is the build side of multiple join conditions",
                tables[e.parent]
            )));
        }
    }
    let is_fact = |t: &usize| edges.iter().all(|e| e.parent != *t);
    let mut facts = (0..tables.len()).filter(is_fact);
    let fact = match (facts.next(), facts.next()) {
        (Some(fact), None) => fact,
        (None, _) => {
            return Err(fail(
                "cyclic join graph: every table is a build side".into(),
            ))
        }
        (Some(_), Some(_)) => {
            let loose: Vec<&String> = (0..tables.len())
                .filter(is_fact)
                .map(|t| &tables[t])
                .collect();
            return Err(fail(format!(
                "join graph is disconnected: no join condition of the form \
                 child.fk = parent.rowid joins {loose:?} to the rest"
            )));
        }
    };
    // Grow the join tree from the fact outward. An edge left unused
    // afterwards means its tables cycle among themselves without a path
    // from the fact.
    let mut used = vec![false; edges.len()];
    let input = build_join_node(fact, tables, &edges, &mut used, &mut filters);
    if used.iter().any(|u| !u) {
        return Err(fail("cyclic join graph".into()));
    }
    match &q.group_by {
        Some((Some(t), _)) if !edges.is_empty() && *t != tables[fact] => Err(fail(format!(
            "GROUP BY over a join must name a column of the fact table {}",
            tables[fact]
        ))),
        _ => Ok(input),
    }
}

/// Recursively assemble the semijoin tree: `table`'s scan (plus its own
/// filter), then one [`LogicalPlan::SemiJoin`] per edge whose child is
/// `table`, in parent-name order (canonical — the WHERE clause's conjunct
/// order must not change the plan fingerprint). Marks consumed edges in
/// `used`; duplicate-parent validation upstream guarantees termination.
fn build_join_node(
    table: usize,
    tables: &[String],
    edges: &[Edge],
    used: &mut [bool],
    filters: &mut [Option<Expr>],
) -> LogicalPlan {
    let mut plan = LogicalPlan::Scan {
        table: tables[table].clone(),
    };
    if let Some(predicate) = filters[table].take() {
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate,
        };
    }
    let mut own: Vec<usize> = (0..edges.len())
        .filter(|&i| !used[i] && edges[i].child == table)
        .collect();
    own.sort_by(|&a, &b| tables[edges[a].parent].cmp(&tables[edges[b].parent]));
    for i in own {
        used[i] = true;
        let build = build_join_node(edges[i].parent, tables, edges, used, filters);
        plan = LogicalPlan::SemiJoin {
            input: Box::new(plan),
            build: Box::new(build),
            fk_col: edges[i].fk_col.clone(),
        };
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::super::{parse, ExplainMode};
    use super::*;
    use crate::{AggFunc, QueryBuilder};

    #[test]
    fn micro_q1_shape() {
        let got = parse("select sum(r_a * r_b) as s from R where r_x < 13 and r_y = 1")
            .unwrap()
            .plan;
        let expected = QueryBuilder::scan("R")
            .filter(
                Expr::col("r_x")
                    .cmp(CmpOp::Lt, Expr::lit(13))
                    .and(Expr::col("r_y").cmp(CmpOp::Eq, Expr::lit(1))),
            )
            .aggregate(
                None,
                vec![AggSpec::sum(Expr::col("r_a").mul(Expr::col("r_b")), "s")],
            );
        assert_eq!(got, expected);
    }

    #[test]
    fn explain_prefix_modes() {
        let plain = parse("select sum(r_a) as s from R").unwrap();
        assert_eq!(plain.explain, None);
        let ex = parse("explain select sum(r_a) as s from R").unwrap();
        assert_eq!(ex.explain, Some(ExplainMode::Plan));
        assert_eq!(ex.plan, plain.plan);
        let ea = parse("EXPLAIN ANALYZE select sum(r_a) as s from R where r_x < 13").unwrap();
        assert_eq!(ea.explain, Some(ExplainMode::Analyze));
        assert_eq!(ea.plan.base_table(), "R");
        let ev = parse("explain verify select sum(r_a) as s from R where r_x < 13").unwrap();
        assert_eq!(ev.explain, Some(ExplainMode::Verify));
        assert_eq!(ev.plan.base_table(), "R");
        // ANALYZE/VERIFY without EXPLAIN are just identifier positions — error.
        assert!(parse("analyze select sum(r_a) as s from R").is_err());
        assert!(parse("verify select sum(r_a) as s from R").is_err());
    }

    #[test]
    fn micro_q2_group_by() {
        let got = parse(
            "select r_c, sum(r_a * r_b) as s, count(*) as n \
             from R where r_x < 50 group by r_c",
        )
        .unwrap()
        .plan;
        match got {
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                assert_eq!(group_by.as_deref(), Some("r_c"));
                assert_eq!(aggs.len(), 2);
                assert_eq!(aggs[1].func, AggFunc::Count);
                assert_eq!(aggs[1].name, "n");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn two_table_semijoin() {
        let got = parse(
            "select sum(R.r_a) from R, S \
             where R.r_fk = S.rowid and S.s_x < 13 and R.r_x < 50",
        )
        .unwrap()
        .plan;
        match got {
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                assert!(group_by.is_none());
                match *input {
                    LogicalPlan::SemiJoin {
                        input: probe,
                        build,
                        fk_col,
                    } => {
                        assert_eq!(fk_col, "r_fk");
                        assert!(matches!(*probe, LogicalPlan::Filter { .. }));
                        assert!(matches!(*build, LogicalPlan::Filter { .. }));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn groupjoin_via_group_by_fk() {
        let got = parse(
            "select R.r_fk, sum(R.r_a * R.r_b) as s from R, S \
             where R.r_fk = S.rowid and S.s_x < 13 group by R.r_fk",
        )
        .unwrap()
        .plan;
        match got {
            LogicalPlan::Aggregate { group_by, .. } => {
                assert_eq!(group_by.as_deref(), Some("r_fk"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn between_like_in_case() {
        let plan = parse(
            "select sum(case when disc between 5 and 7 then price else 0 end) as s \
             from L where mode in ('AIR', 'MAIL') and note not like '%x%'",
        )
        .unwrap()
        .plan;
        let LogicalPlan::Aggregate { input, aggs, .. } = plan else {
            panic!()
        };
        assert!(matches!(aggs[0].expr, Expr::Case { .. }));
        let LogicalPlan::Filter { predicate, .. } = *input else {
            panic!()
        };
        // in-list AND not-like
        let Expr::And(a, b) = predicate else { panic!() };
        assert!(matches!(*a, Expr::InList { .. }));
        assert!(matches!(*b, Expr::Not(_)));
    }

    #[test]
    fn string_equality_becomes_dictionary_predicate() {
        let plan = parse("select count(*) from C where seg = 'BUILDING'")
            .unwrap()
            .plan;
        let LogicalPlan::Aggregate { input, .. } = plan else {
            panic!()
        };
        let LogicalPlan::Filter { predicate, .. } = *input else {
            panic!()
        };
        assert_eq!(
            predicate,
            Expr::InList {
                col: "seg".into(),
                values: vec!["BUILDING".into()]
            }
        );
    }

    #[test]
    fn operator_precedence() {
        // a + b * c < 10 or d = 1 and e = 2  ⇒  ((a+(b*c)) < 10) OR ((d=1) AND (e=2))
        let plan = parse("select count(*) from T where a + b * c < 10 or d = 1 and e = 2")
            .unwrap()
            .plan;
        let LogicalPlan::Aggregate { input, .. } = plan else {
            panic!()
        };
        let LogicalPlan::Filter { predicate, .. } = *input else {
            panic!()
        };
        let Expr::Or(lhs, rhs) = predicate else {
            panic!("OR must be outermost")
        };
        assert!(matches!(*lhs, Expr::Cmp(CmpOp::Lt, _, _)));
        assert!(matches!(*rhs, Expr::And(_, _)));
    }

    #[test]
    fn count_star_and_aliases() {
        let plan = parse("select count(*), sum(v) from T").unwrap().plan;
        let LogicalPlan::Aggregate { aggs, .. } = plan else {
            panic!()
        };
        assert_eq!(aggs[0].name, "agg1");
        assert_eq!(aggs[1].name, "agg2");
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse("").is_err());
        assert!(parse("select from T").is_err());
        assert!(parse("select sum(a) from").is_err());
        assert!(parse("select sum(a) from T where").is_err());
        // A bare-column select is a projection (window path), not an error.
        assert!(parse("select a from T").is_ok());
        assert!(
            parse("select a, sum(b) from T").is_err(),
            "bare column mixed with an aggregate and no group by"
        );
        assert!(
            parse("select sum(a) from T extra").is_err(),
            "trailing input"
        );
        assert!(
            parse("select sum(a) from A, B, C where x = 1").is_err(),
            "3 tables"
        );
        assert!(
            parse("select sum(a) from A, B where A.x < 3").is_err(),
            "missing join condition"
        );
        assert!(
            parse("select sum(a) from T where name = unquoted").is_err()
                || parse("select sum(a) from T where name = unquoted").is_ok(),
            "column=column comparison parses"
        );
        let err = parse("select sum(a) from T where x < 'oops'").unwrap_err();
        assert!(err.message.contains("string"), "{err}");
    }

    #[test]
    fn negative_literals() {
        let plan = parse("select sum(a) from T where x < -5").unwrap().plan;
        let LogicalPlan::Aggregate { input, .. } = plan else {
            panic!()
        };
        let LogicalPlan::Filter { predicate, .. } = *input else {
            panic!()
        };
        // -5 parses as 0 - 5.
        assert!(matches!(predicate, Expr::Cmp(CmpOp::Lt, _, _)));
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse("SELECT SUM(a) FROM t WHERE x < 1 GROUP BY c").is_ok());
        let ok = parse("SeLeCt sum(a) As s FrOm t WhErE x BeTwEeN 1 AnD 2");
        assert!(ok.is_ok(), "{ok:?}");
    }

    #[test]
    fn anonymous_placeholders_number_left_to_right() {
        let parsed = parse("select sum(a) from T where x < ? and y >= ?").unwrap();
        assert_eq!(parsed.param_slots.len(), 2);
        assert_eq!(parsed.param_slots[0].index, 0);
        assert_eq!(parsed.param_slots[1].index, 1);
        let LogicalPlan::Aggregate { input, .. } = parsed.plan else {
            panic!()
        };
        let LogicalPlan::Filter { predicate, .. } = *input else {
            panic!()
        };
        let Expr::And(a, b) = predicate else { panic!() };
        assert!(matches!(*a, Expr::Cmp(CmpOp::Lt, _, _)));
        let Expr::Cmp(CmpOp::Ge, _, rhs) = *b else {
            panic!()
        };
        assert_eq!(*rhs, Expr::Param(1));
    }

    #[test]
    fn numbered_placeholders_may_repeat() {
        let parsed = parse("select sum(a) from T where x >= $1 and y < $2 and z <> $1").unwrap();
        assert_eq!(parsed.param_slots.len(), 3);
        let ordinals: Vec<usize> = parsed.param_slots.iter().map(|s| s.index).collect();
        assert_eq!(ordinals, vec![0, 1, 0]);
    }

    #[test]
    fn placeholder_styles_cannot_mix() {
        let err = parse("select sum(a) from T where x < ? and y = $2").unwrap_err();
        assert!(err.message.contains("mix"), "{err}");
        let err = parse("select sum(a) from T where x < $1 and y = ?").unwrap_err();
        assert!(err.message.contains("mix"), "{err}");
    }

    #[test]
    fn placeholder_ordinals_must_be_contiguous() {
        let err = parse("select sum(a) from T where x < $1 and y = $3").unwrap_err();
        assert!(err.message.contains("$2"), "{err}");
        assert!(parse("select sum(a) from T where x < $2").is_err());
    }

    #[test]
    fn window_functions_bind() {
        let plan = parse(
            "select r_c, row_number() over (partition by r_c order by r_a desc) as rn, \
             sum(r_a) over (partition by r_c order by r_a desc) as running \
             from R where r_x < 13",
        )
        .unwrap()
        .plan;
        let LogicalPlan::Window {
            partition_by,
            order_by,
            frame,
            funcs,
            select,
            ..
        } = plan
        else {
            panic!("expected a window plan")
        };
        assert_eq!(partition_by.as_deref(), Some("r_c"));
        assert_eq!(order_by.len(), 1);
        assert_eq!(order_by[0].column, "r_a");
        assert!(order_by[0].desc);
        assert_eq!(frame, FrameSpec::UnboundedPreceding);
        assert_eq!(funcs.len(), 2);
        assert_eq!(funcs[0].name, "rn");
        assert_eq!(funcs[1].name, "running");
        assert_eq!(select, vec!["r_c".to_string()]);
    }

    #[test]
    fn window_frames_and_defaults() {
        // ROWS k PRECEDING.
        let plan = parse("select sum(v) over (order by k rows 3 preceding) from T")
            .unwrap()
            .plan;
        let LogicalPlan::Window { frame, funcs, .. } = plan else {
            panic!()
        };
        assert_eq!(frame, FrameSpec::Preceding(3));
        assert_eq!(funcs[0].name, "w1", "auto-named window output");
        // No ORDER BY in OVER -> whole partition.
        let plan = parse("select count(*) over (partition by g) from T")
            .unwrap()
            .plan;
        let LogicalPlan::Window { frame, .. } = plan else {
            panic!()
        };
        assert_eq!(frame, FrameSpec::WholePartition);
    }

    #[test]
    fn order_by_and_limit_wrap_any_query() {
        let plan = parse("select g, count(*) as n from T group by g order by n desc, g limit 5")
            .unwrap()
            .plan;
        let LogicalPlan::Limit { input, n } = plan else {
            panic!("LIMIT must be outermost")
        };
        assert_eq!(n, 5);
        let LogicalPlan::OrderBy { input, keys } = *input else {
            panic!("ORDER BY inside LIMIT")
        };
        assert_eq!(keys.len(), 2);
        assert!(keys[0].desc);
        assert_eq!(keys[1].column, "g");
        assert!(!keys[1].desc);
        assert!(matches!(*input, LogicalPlan::Aggregate { .. }));
        // Bare projection with LIMIT only.
        let plan = parse("select a from T limit 10").unwrap().plan;
        let LogicalPlan::Limit { input, .. } = plan else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Window { .. }));
    }

    #[test]
    fn window_grammar_errors() {
        // ROW_NUMBER without OVER.
        assert!(parse("select row_number() from T").is_err());
        // MIN/MAX are not window functions.
        let err = parse("select min(a) over (partition by g) from T").unwrap_err();
        assert!(err.message.contains("MIN/MAX"), "{err}");
        // Mixed OVER clauses.
        let err =
            parse("select sum(a) over (partition by g), count(*) over (partition by h) from T")
                .unwrap_err();
        assert!(err.message.contains("same"), "{err}");
        // Window + GROUP BY.
        assert!(parse("select g, count(*) over (partition by g) from T group by g").is_err());
        // Window over a join.
        assert!(parse(
            "select row_number() over (partition by R.r_c) from R, S \
                   where R.r_fk = S.rowid"
        )
        .is_err());
        // LIMIT requires an integer literal.
        assert!(parse("select a from T limit x").is_err());
    }

    /// The error surface of the one FROM-list path, each refusal with the
    /// substring that names it.
    #[test]
    fn join_graph_errors_name_their_cause() {
        let cases = [
            // Two tables and nothing joining them.
            ("select sum(A.x) from A, B where A.x < 3", "disconnected"),
            ("select count(*) from A, B", "disconnected"),
            (
                "select count(*) from A, B where A.fk = B.rowid and A.fk2 = B.rowid",
                "build side of multiple join conditions",
            ),
            (
                "select count(*) from A, B where A.fk = B.rowid and B.fk = A.rowid",
                "cyclic",
            ),
            (
                "select count(*) from A, B, C, D \
                 where A.fk = B.rowid and C.fk = D.rowid and D.fk = C.rowid",
                "cyclic join graph",
            ),
            (
                "select count(*) from A, B where A.fk = B.rowid and C.x < 3",
                "unknown table qualifier C",
            ),
            (
                "select count(*) from A, B where A.fk = C.rowid",
                "join references A/C",
            ),
            (
                "select count(*) from A, B where A.fk = A.rowid",
                "join references A/A",
            ),
            (
                "select count(*) from A, B where A.fk = B.rowid and x < 3",
                "qualify every column",
            ),
            (
                "select count(*) from A, B where A.fk = B.rowid and A.x < B.y",
                "exactly one table per conjunct",
            ),
            (
                "select B.g, count(*) from A, B where A.fk = B.rowid group by B.g",
                "GROUP BY",
            ),
            (
                "select B.g, count(*) from A, B, C \
                 where A.fk = B.rowid and A.fk2 = C.rowid group by B.g",
                "GROUP BY",
            ),
            (
                "select row_number() over (partition by A.g) from A, B where A.fk = B.rowid",
                "single table",
            ),
            ("select A.x from A, B where A.fk = B.rowid", "single table"),
        ];
        for (sql, needle) in cases {
            let err = parse(sql).expect_err(sql);
            assert!(err.message.contains(needle), "{sql}: {err}");
        }
        // What the same path keeps accepting: a key qualified by the fact,
        // and a single table's qualifiers, which are never looked at.
        assert!(
            parse("select A.fk, count(*) from A, B where A.fk = B.rowid group by A.fk").is_ok()
        );
        assert!(
            parse("select g, count(*) from A where B.x < 3 and A.fk = B.rowid group by C.g")
                .is_ok()
        );
    }

    #[test]
    fn placeholders_route_through_joins() {
        let parsed = parse(
            "select sum(R.r_a) from R, S \
             where R.r_fk = S.rowid and S.s_x < $1 and R.r_x < $2",
        )
        .unwrap();
        assert_eq!(parsed.param_slots.len(), 2);
        let LogicalPlan::Aggregate { input, .. } = parsed.plan else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::SemiJoin { .. }));
    }
}
