//! Prepared statements: plan once, bind many.
//!
//! [`Engine::prepare`] (or [`Engine::prepare_sql`] for the SQL frontend's
//! `?` / `$n` placeholders) captures a logical-plan template against an
//! engine session. Binding typed [`Params`] substitutes every
//! [`Expr::Param`] with its value and yields a [`BoundStatement`], whose
//! `execute` runs through the session's plan cache — so the strategy
//! choice, sampling, and cost-model work happen once per distinct plan
//! shape, not once per execution.
//!
//! ```
//! use swole_plan::{Engine, Params};
//! # use swole_plan::Database;
//! # use swole_storage::{ColumnData, Table};
//! # let mut db = Database::new();
//! # db.add_table(
//! #     Table::new("R")
//! #         .with_column("r_a", ColumnData::I32((0..8).collect()))
//! #         .with_column("r_x", ColumnData::I32((0..8).map(|i| i % 4).collect())),
//! # );
//! let e = Engine::builder(db).build();
//! let stmt = e.prepare_sql("select sum(r_a) as s from R where r_x < ?")?;
//! let one = stmt.bind(&Params::new().int(2))?.execute()?;
//! let two = stmt.bind(&Params::new().int(3))?.execute()?;
//! assert!(two.rows[0][0] >= one.rows[0][0]);
//! # Ok::<(), swole_plan::PlanError>(())
//! ```

use crate::engine::{Engine, Statement};
use crate::error::PlanError;
use crate::explain::Explain;
use crate::expr::{CmpOp, Expr};
use crate::logical::LogicalPlan;
use crate::result::QueryResult;
use crate::session::{QueryOptions, Session};
use crate::value::{Params, Value};

/// A statement template and the [`Session`] it runs in: the session whose
/// `prepare` made it, or the engine's root session for [`Engine::prepare`].
/// Everything bound from it executes under that session's cancellation
/// scope and [`QueryOptions`] defaults.
///
/// Cloning costs one copy of the template, and a prepared statement may be
/// used from any thread — executions are bit-identical regardless of which
/// clone or thread runs them.
#[derive(Clone)]
pub struct PreparedStatement {
    session: Session,
    template: LogicalPlan,
    param_count: usize,
}

/// A [`PreparedStatement`] with every placeholder substituted, ready to
/// execute (repeatedly, if desired): a [`Session`] and the plan it runs.
#[derive(Clone)]
pub struct BoundStatement {
    session: Session,
    plan: LogicalPlan,
}

impl Engine {
    /// [`Session::prepare`] on the engine-wide scope.
    pub fn prepare(&self, plan: &LogicalPlan) -> Result<PreparedStatement, PlanError> {
        self.root().prepare(plan)
    }

    /// [`Session::prepare_sql`] on the engine-wide scope.
    pub fn prepare_sql(&self, sql: &str) -> Result<PreparedStatement, PlanError> {
        self.root().prepare_sql(sql)
    }
}

impl Session {
    /// Prepare a logical-plan template for repeated execution in this
    /// session.
    ///
    /// Placeholder ordinals ([`Expr::Param`]) must be contiguous from 0 —
    /// a template that mentions `$3` but never `$2` fails with
    /// [`PlanError::BindMismatch`]. A template without placeholders is
    /// planned immediately, seeding the shared plan cache; templates
    /// with placeholders are planned on first execution of each bound
    /// variant (bound literals feed predicate sampling, so different
    /// bindings may legitimately choose different strategies).
    pub fn prepare(&self, template: &LogicalPlan) -> Result<PreparedStatement, PlanError> {
        self.prepared(template.clone())
    }

    /// Prepare a SQL statement with `?` or `$n` placeholders.
    ///
    /// The text is parsed once; `EXPLAIN` prefixes are rejected (call
    /// [`BoundStatement::explain`] / [`BoundStatement::explain_analyze`]
    /// on the bound statement instead).
    pub fn prepare_sql(&self, sql: &str) -> Result<PreparedStatement, PlanError> {
        self.prepared(parse_statement(sql)?)
    }

    fn prepared(&self, template: LogicalPlan) -> Result<PreparedStatement, PlanError> {
        let param_count = param_count(&template)?;
        if param_count == 0 {
            // No placeholders: plan now, so the first execute() is a hit.
            let inner = &self.engine().inner;
            let verify = inner.verify_level(self.defaults());
            inner.plan(&inner.read_db(), Statement::Plan(&template), verify)?;
        }
        Ok(PreparedStatement {
            session: self.clone(),
            template,
            param_count,
        })
    }

    /// Run an ad-hoc SQL text: parse, check `params` against its
    /// placeholders, substitute them, [`Session::query`]. Unlike the
    /// explicit [`Session::prepare_sql`] this plans nothing ahead of the
    /// run, so a text costs one plan-cache lookup. A text run without
    /// parameters is looked up by its bytes before anything is parsed: the
    /// cache entry keeps the texts that reached it, so a warm text is one
    /// hash and one lookup.
    pub fn query_sql(&self, sql: &str, params: &Params) -> Result<QueryResult, PlanError> {
        if params.is_empty() {
            return self.run(Statement::Text(sql), &QueryOptions::default());
        }
        let template = parse_statement(sql)?;
        let expects = param_count(&template)?;
        self.query(&bind_plan(&template, expects, params)?)
    }
}

impl PreparedStatement {
    /// Number of placeholders the template expects.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The captured logical-plan template (placeholders intact).
    pub fn template(&self) -> &LogicalPlan {
        &self.template
    }

    /// Substitute placeholders with `params`, in ordinal order.
    ///
    /// Fails with [`PlanError::BindMismatch`] on an arity mismatch, or
    /// when a [`Value::Str`] binds anywhere other than an `=` / `<>`
    /// comparison against a column (strings live in dictionary columns and
    /// have no integer encoding the kernels could compare).
    pub fn bind(&self, params: &Params) -> Result<BoundStatement, PlanError> {
        Ok(BoundStatement {
            session: self.session.clone(),
            plan: bind_plan(&self.template, self.param_count, params)?,
        })
    }

    /// Convenience for statements without placeholders:
    /// `bind(&Params::new())?.execute()`.
    pub fn execute(&self) -> Result<QueryResult, PlanError> {
        self.bind(&Params::new())?.execute()
    }
}

impl BoundStatement {
    /// The fully bound logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// [`Session::query`] of the bound plan, in the session this statement
    /// was prepared in.
    pub fn execute(&self) -> Result<QueryResult, PlanError> {
        self.session.query(&self.plan)
    }

    /// [`BoundStatement::execute`] with per-call option overrides (fields
    /// left `None` fall back to the preparing session's defaults, then the
    /// engine's).
    pub fn execute_with(&self, opts: &QueryOptions) -> Result<QueryResult, PlanError> {
        self.session.query_with(&self.plan, opts)
    }

    /// EXPLAIN the bound plan (reports `plan: cached` once this statement
    /// has executed and nothing invalidated the entry).
    pub fn explain(&self) -> Result<Explain, PlanError> {
        self.session.engine().explain(&self.plan)
    }

    /// [`Session::explain_analyze`] of the bound plan: execute once with
    /// metrics and return the report.
    pub fn explain_analyze(&self) -> Result<Explain, PlanError> {
        self.session.explain_analyze(&self.plan)
    }

    /// [`BoundStatement::explain_analyze`] with per-call option overrides.
    pub fn explain_analyze_with(&self, opts: &QueryOptions) -> Result<Explain, PlanError> {
        self.session.explain_analyze_with(&self.plan, opts)
    }
}

/// Parse one SQL statement into its plan template, rejecting `EXPLAIN`
/// prefixes — the one message for both doors, running a text and preparing
/// it.
fn parse_statement(sql: &str) -> Result<LogicalPlan, PlanError> {
    let parsed = crate::sql::parse(sql).map_err(|e| PlanError::Sql {
        message: e.message,
        position: e.position,
    })?;
    if parsed.explain.is_some() {
        return Err(PlanError::Unsupported(
            "EXPLAIN is not a statement to run or prepare — parse or prepare \
             the bare query and pass its plan to Engine::explain, \
             explain_analyze, explain_verify or explain_code"
                .into(),
        ));
    }
    Ok(parsed.plan)
}

/// The plan of a text run without parameters: its template, which must then
/// have no placeholders.
pub(crate) fn parse_unbound(sql: &str) -> Result<LogicalPlan, PlanError> {
    let template = parse_statement(sql)?;
    match param_count(&template)? {
        0 => Ok(template),
        expects => Err(arity_mismatch(expects, 0)),
    }
}

/// How many placeholders a template expects: one more than the highest
/// ordinal it mentions (filters, aggregate and window-function inputs
/// alike), every ordinal below which must be mentioned too.
fn param_count(template: &LogicalPlan) -> Result<usize, PlanError> {
    let mut ordinals = Vec::new();
    template.visit(&mut |node| match node {
        LogicalPlan::Filter { predicate, .. } => ordinals.extend(predicate.params()),
        LogicalPlan::Aggregate { aggs, .. } => {
            ordinals.extend(aggs.iter().flat_map(|a| a.expr.params()));
        }
        LogicalPlan::Window { funcs, .. } => {
            let inputs = funcs.iter().filter_map(|f| f.expr.as_ref());
            ordinals.extend(inputs.flat_map(Expr::params));
        }
        _ => {}
    });
    ordinals.sort_unstable();
    ordinals.dedup();
    match (0..ordinals.len()).find(|&i| ordinals[i] != i) {
        Some(missing) => Err(PlanError::BindMismatch(format!(
            "placeholder ${} is never used (placeholders must be contiguous)",
            missing + 1
        ))),
        None => Ok(ordinals.len()),
    }
}

/// `template` with its `expects` placeholders replaced by `params`.
fn bind_plan(
    template: &LogicalPlan,
    expects: usize,
    params: &Params,
) -> Result<LogicalPlan, PlanError> {
    if params.len() != expects {
        return Err(arity_mismatch(expects, params.len()));
    }
    let vals = params.values();
    template.try_map(&mut |e| subst_expr(e, vals))
}

/// Binding `got` values to a template with `expects` placeholders.
fn arity_mismatch(expects: usize, got: usize) -> PlanError {
    PlanError::BindMismatch(format!(
        "statement expects {expects} parameter(s), got {got}"
    ))
}

/// Substitute placeholders inside one expression.
///
/// Integer-encodable values ([`Value::Int`], [`Value::Decimal`],
/// [`Value::Date`]) become [`Expr::Lit`] of their raw encoding.
/// [`Value::Str`] has no raw encoding; it is only accepted as
/// `col = ?` / `col <> ?` (either operand order), which rewrite to the
/// dictionary predicates `col IN (value)` / `NOT (col IN (value))`.
fn subst_expr(e: &Expr, vals: &[Value]) -> Result<Expr, PlanError> {
    if let Expr::Param(i) = e {
        return Ok(Expr::Lit(param_raw(*i, vals)?));
    }
    // String bindings: rewrite `col = $n` (or the mirrored form) into a
    // one-element dictionary IN-list; under any other operator the string
    // reaches `param_raw`, which rejects it.
    if let Expr::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), a, b) = e {
        if let (Expr::Col(col), Expr::Param(i)) | (Expr::Param(i), Expr::Col(col)) = (&**a, &**b) {
            if let Some(Value::Str(s)) = vals.get(*i) {
                let in_list = Expr::InList {
                    col: col.clone(),
                    values: vec![s.clone()],
                };
                return Ok(match op {
                    CmpOp::Eq => in_list,
                    _ => Expr::Not(Box::new(in_list)),
                });
            }
        }
    }
    e.try_map_children(&mut |child| subst_expr(child, vals))
}

/// The raw `i64` encoding of the value bound to ordinal `i`, or a
/// [`PlanError::BindMismatch`] for a string (the supported rewrites have
/// consumed theirs before this).
fn param_raw(i: usize, vals: &[Value]) -> Result<i64, PlanError> {
    let v = vals.get(i).ok_or_else(|| {
        PlanError::BindMismatch(format!("no value bound for placeholder ${}", i + 1))
    })?;
    v.raw_i64().ok_or_else(|| {
        PlanError::BindMismatch(format!(
            "string parameter ${} only supports = or <> against a dictionary \
             column",
            i + 1
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggSpec, QueryBuilder};
    use swole_storage::{ColumnData, DictColumn, Table};

    fn db() -> crate::Database {
        let mut db = crate::Database::new();
        db.add_table(
            Table::new("R")
                .with_column("r_a", ColumnData::I32((0..64).collect()))
                .with_column("r_x", ColumnData::I32((0..64).map(|i| i % 8).collect()))
                .with_column(
                    "r_s",
                    ColumnData::Dict(DictColumn::encode(
                        &(0..64)
                            .map(|i| if i % 2 == 0 { "even" } else { "odd" })
                            .collect::<Vec<_>>(),
                    )),
                ),
        );
        db
    }

    fn sum_below(cutoff: Expr) -> LogicalPlan {
        QueryBuilder::scan("R")
            .filter(Expr::col("r_x").cmp(CmpOp::Lt, cutoff))
            .aggregate(None, vec![AggSpec::sum(Expr::col("r_a"), "s")])
    }

    #[test]
    fn int_binding_matches_literal_query() {
        let e = Engine::builder(db()).build();
        let stmt = e
            .prepare_sql("select sum(r_a) as s from R where r_x < ?")
            .unwrap();
        let bound = stmt.bind(&Params::new().int(3)).unwrap();
        let direct = e.query(&sum_below(Expr::Lit(3))).unwrap();
        assert_eq!(bound.execute().unwrap(), direct);
    }

    #[test]
    fn str_binding_rewrites_to_dict_predicate() {
        let e = Engine::builder(db()).build();
        let stmt = e
            .prepare_sql("select count(*) as n from R where r_s = $1")
            .unwrap();
        let n = stmt
            .bind(&Params::new().str("even"))
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(n.rows[0][0], 32);
        let ne = e
            .prepare_sql("select count(*) as n from R where r_s <> $1")
            .unwrap()
            .bind(&Params::new().str("even"))
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(ne.rows[0][0], 32);
    }

    #[test]
    fn arity_and_type_mismatches_are_typed_errors() {
        let e = Engine::builder(db()).build();
        let stmt = e
            .prepare_sql("select sum(r_a) as s from R where r_x < ?")
            .unwrap();
        assert!(matches!(
            stmt.bind(&Params::new()),
            Err(PlanError::BindMismatch(_))
        ));
        assert!(matches!(
            stmt.bind(&Params::new().int(1).int(2)),
            Err(PlanError::BindMismatch(_))
        ));
        // A string bound into an ordered comparison cannot encode.
        assert!(matches!(
            stmt.bind(&Params::new().str("even")),
            Err(PlanError::BindMismatch(_))
        ));
    }

    #[test]
    fn unbound_template_cannot_execute_directly() {
        let e = Engine::builder(db()).build();
        let plan = sum_below(Expr::Param(0));
        assert!(matches!(e.query(&plan), Err(PlanError::BindMismatch(_))));
        let stmt = e.prepare(&plan).unwrap();
        assert_eq!(stmt.param_count(), 1);
        assert!(stmt.bind(&Params::new().int(4)).unwrap().execute().is_ok());
    }

    #[test]
    fn noncontiguous_ordinals_are_rejected() {
        let e = Engine::builder(db()).build();
        let plan = sum_below(Expr::Param(2));
        assert!(matches!(e.prepare(&plan), Err(PlanError::BindMismatch(_))));
    }

    #[test]
    fn zero_param_prepare_seeds_the_cache() {
        let e = Engine::builder(db()).build();
        let plan = sum_below(Expr::Lit(5));
        let stmt = e.prepare(&plan).unwrap();
        assert_eq!(stmt.param_count(), 0);
        stmt.execute().unwrap();
        let stats = e.plan_cache_stats();
        assert!(stats.hits >= 1, "prepare should have seeded the cache");
    }
}
