//! Expressions and their row-at-a-time evaluation.
//!
//! The engine does not walk these trees while it scans: the planner lowers
//! them once into flat tile programs (`crate::tile`). Everything else that
//! evaluates an expression — the reference interpreter, the planner's
//! statistics samples, the tile programs' tests — compiles it once per
//! statement with [`Expr::compile`]: every column is resolved to its typed
//! slice and every `LIKE` / `IN` to a per-code match table, and the
//! [`RowExpr`] it returns evaluates one row at a time with no lookup by
//! name. It shares no code with the tile programs, so it stays their
//! oracle.

use crate::error::PlanError;
use swole_storage::{like_match, ColumnData, Table};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>`
    Ne,
}

impl CmpOp {
    pub(crate) fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// Aggregate functions.
///
/// `Sum`/`Count` compose with value masking (a masked contribution is 0);
/// `Min`/`Max` "may require minor additional bookkeeping" (§ III-A), which
/// the planner realises by forcing the hybrid path for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `sum(expr)`
    Sum,
    /// `count(*)`
    Count,
    /// `min(expr)`
    Min,
    /// `max(expr)`
    Max,
}

/// A scalar expression over one table's columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Column reference.
    Col(String),
    /// Integer literal (dates/decimals are integers in this storage model).
    Lit(i64),
    /// A prepared-statement placeholder (`?` / `$n` in SQL), identified by
    /// its 0-based ordinal. Plans containing parameters cannot be planned or
    /// executed directly — [`crate::PreparedStatement::bind`] substitutes
    /// every placeholder with a bound value first.
    Param(usize),
    /// Comparison producing a boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic: `+`.
    Add(Box<Expr>, Box<Expr>),
    /// Arithmetic: `-`.
    Sub(Box<Expr>, Box<Expr>),
    /// Arithmetic: `*`.
    Mul(Box<Expr>, Box<Expr>),
    /// Arithmetic: `/` (integer).
    Div(Box<Expr>, Box<Expr>),
    /// Boolean conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Boolean disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// `col LIKE pattern` over a dictionary-encoded string column; the
    /// pattern is evaluated once per dictionary entry.
    Like {
        /// Dictionary column name.
        col: String,
        /// SQL LIKE pattern (`%`, `_`).
        pattern: String,
    },
    /// `col IN (values...)` over a dictionary-encoded string column.
    InList {
        /// Dictionary column name.
        col: String,
        /// String values.
        values: Vec<String>,
    },
    /// `case when <cond> then <a> else <b> end`. The engine evaluates it
    /// with value masking (§ III-A: "we can unconditionally evaluate all
    /// cases and then mask the non-qualifying results").
    Case {
        /// Condition.
        when: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
}

impl Expr {
    /// Convenience: `col(name)`.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Convenience: literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(v)
    }

    /// Convenience: `self < other` etc.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `self * other`.
    #[allow(clippy::should_implement_trait)] // builder DSL, not arithmetic on Expr values
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(other))
    }

    /// Direct sub-expressions, left to right: with
    /// [`Expr::try_map_children`], all that knows which variants have operands.
    pub(crate) fn children(&self) -> impl Iterator<Item = &Expr> {
        let kids: [Option<&Expr>; 3] = match self {
            Expr::Col(_)
            | Expr::Lit(_)
            | Expr::Param(_)
            | Expr::Like { .. }
            | Expr::InList { .. } => [None; 3],
            Expr::Not(a) => [Some(a), None, None],
            Expr::Cmp(_, a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => [Some(a), Some(b), None],
            Expr::Case {
                when,
                then,
                otherwise,
            } => [Some(when), Some(then), Some(otherwise)],
        };
        kids.into_iter().flatten()
    }

    /// This node with every direct sub-expression replaced by `f` of it
    /// (a leaf is cloned).
    pub(crate) fn try_map_children<E>(
        &self,
        f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        let mut m = |e: &Expr| f(e).map(Box::new);
        Ok(match self {
            Expr::Col(_)
            | Expr::Lit(_)
            | Expr::Param(_)
            | Expr::Like { .. }
            | Expr::InList { .. } => self.clone(),
            Expr::Not(a) => Expr::Not(m(a)?),
            Expr::Cmp(op, a, b) => Expr::Cmp(*op, m(a)?, m(b)?),
            Expr::Add(a, b) => Expr::Add(m(a)?, m(b)?),
            Expr::Sub(a, b) => Expr::Sub(m(a)?, m(b)?),
            Expr::Mul(a, b) => Expr::Mul(m(a)?, m(b)?),
            Expr::Div(a, b) => Expr::Div(m(a)?, m(b)?),
            Expr::And(a, b) => Expr::And(m(a)?, m(b)?),
            Expr::Or(a, b) => Expr::Or(m(a)?, m(b)?),
            Expr::Case {
                when,
                then,
                otherwise,
            } => Expr::Case {
                when: m(when)?,
                then: m(then)?,
                otherwise: m(otherwise)?,
            },
        })
    }

    /// Pre-order walk: `f` sees this node, then its operands left to right.
    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.children().for_each(|c| c.visit(f));
    }

    /// Column names referenced by this expression, in first-appearance
    /// order without duplicates (feeds the cost model's `n_cols`).
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| match e {
            Expr::Col(c) | Expr::Like { col: c, .. } | Expr::InList { col: c, .. }
                if !out.contains(c) =>
            {
                out.push(c.clone())
            }
            _ => {}
        });
        out
    }

    /// Estimated computation cycles per tuple (the `comp` introspection of
    /// § III-A), using `swole-cost`'s per-operator costs.
    pub fn comp_cycles(&self) -> f64 {
        use swole_cost::comp::ArithOp;
        let own = match self {
            Expr::Col(_) | Expr::Lit(_) | Expr::Param(_) | Expr::Case { .. } => 0.0,
            Expr::Add(..) | Expr::Sub(..) => ArithOp::AddSub.cycles(),
            Expr::Mul(..) => ArithOp::Mul.cycles(),
            Expr::Div(..) => ArithOp::Div.cycles(),
            // Dictionary predicates cost one table load per row.
            Expr::Cmp(..)
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Not(_)
            | Expr::Like { .. }
            | Expr::InList { .. } => ArithOp::Cmp.cycles(),
        };
        self.children().fold(own, |sum, c| sum + c.comp_cycles())
    }

    /// Placeholder ordinals referenced by this expression, in appearance
    /// order with duplicates kept.
    pub fn params(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Param(i) = e {
                out.push(*i);
            }
        });
        out
    }

    /// Validate column references and dictionary requirements against a
    /// table.
    pub fn validate(&self, table: &Table) -> Result<(), PlanError> {
        if let Some(i) = self.params().first() {
            return Err(PlanError::BindMismatch(format!(
                "plan still contains unbound placeholder ${} — bind it through \
                 a prepared statement",
                i + 1
            )));
        }
        for name in self.columns() {
            if table.column(&name).is_none() {
                return Err(PlanError::UnknownColumn {
                    table: table.name().to_string(),
                    column: name,
                });
            }
        }
        self.validate_dicts(table)
    }

    fn validate_dicts(&self, table: &Table) -> Result<(), PlanError> {
        if let Expr::Like { col, .. } | Expr::InList { col, .. } = self {
            // `validate` has already found the column.
            if !matches!(table.column(col), Some(ColumnData::Dict(_))) {
                return Err(PlanError::InvalidExpr(format!(
                    "LIKE/IN requires a dictionary column, {col} is not"
                )));
            }
        }
        self.children().try_for_each(|c| c.validate_dicts(table))
    }

    /// Compile this expression against `table` for row-at-a-time
    /// evaluation: [`Expr::validate`] it, then resolve every column to its
    /// typed slice and every `LIKE` / `IN` to a match table over its
    /// dictionary, once. The evaluator then finds nothing by name.
    pub fn compile<'t>(&self, table: &'t Table) -> Result<RowExpr<'t>, PlanError> {
        self.validate(table)?;
        Ok(RowExpr(row_fn(self, table)))
    }
}

/// One row's value of a compiled expression.
type RowFn<'t> = Box<dyn Fn(usize) -> i64 + 't>;

/// An [`Expr`] compiled against one table by [`Expr::compile`]: a tree of
/// closures, one per node, over the table's typed columns. It backs the
/// reference interpreter and the planner's statistics samples, and shares
/// no code with the tile programs (`crate::tile`), so it stays an
/// independent oracle for them.
pub struct RowExpr<'t>(RowFn<'t>);

impl RowExpr<'_> {
    /// The expression's value at `row`; booleans are 0/1.
    pub fn eval(&self, row: usize) -> i64 {
        (self.0)(row)
    }
}

fn row_fn<'t>(e: &Expr, t: &'t Table) -> RowFn<'t> {
    match e {
        Expr::Col(c) => map_col(t.column_required(c), |x| x),
        Expr::Lit(v) => {
            let v = *v;
            Box::new(move |_| v)
        }
        // Rejected by validation.
        Expr::Param(_) => Box::new(|_| 0),
        Expr::Cmp(op, a, b) => {
            let op = *op;
            binary(a, b, t, move |x, y| op.apply(x, y) as i64)
        }
        // Explicit wrapping arithmetic: identical results in debug and
        // release builds (division by zero still panics; the engine's
        // isolation domain converts that into a typed error).
        Expr::Add(a, b) => binary(a, b, t, i64::wrapping_add),
        Expr::Sub(a, b) => binary(a, b, t, i64::wrapping_sub),
        Expr::Mul(a, b) => binary(a, b, t, i64::wrapping_mul),
        Expr::Div(a, b) => binary(a, b, t, i64::wrapping_div),
        // `AND`, `OR` and `CASE` evaluate an operand only when it decides
        // the value, so a guarded division never runs on the rows it guards.
        Expr::And(a, b) => {
            let (a, b) = (row_fn(a, t), row_fn(b, t));
            Box::new(move |r| (a(r) != 0 && b(r) != 0) as i64)
        }
        Expr::Or(a, b) => {
            let (a, b) = (row_fn(a, t), row_fn(b, t));
            Box::new(move |r| (a(r) != 0 || b(r) != 0) as i64)
        }
        Expr::Not(a) => {
            let a = row_fn(a, t);
            Box::new(move |r| (a(r) == 0) as i64)
        }
        Expr::Like { col, pattern } => dict_match(t, col, |v| like_match(pattern, v)),
        Expr::InList { col, values } => dict_match(t, col, |v| values.iter().any(|s| s == v)),
        Expr::Case {
            when,
            then,
            otherwise,
        } => {
            let (w, a, b) = (row_fn(when, t), row_fn(then, t), row_fn(otherwise, t));
            Box::new(move |r| if w(r) != 0 { a(r) } else { b(r) })
        }
    }
}

/// `f` of two operands. A column against a literal — `x < 5`, `a * 2`, the
/// commonest shape — reads the column and applies `f` in one closure.
fn binary<'t>(a: &Expr, b: &Expr, t: &'t Table, f: impl Fn(i64, i64) -> i64 + 't) -> RowFn<'t> {
    match (a, b) {
        (Expr::Col(c), Expr::Lit(y)) => {
            let y = *y;
            map_col(t.column_required(c), move |x| f(x, y))
        }
        _ => {
            let (a, b) = (row_fn(a, t), row_fn(b, t));
            Box::new(move |r| f(a(r), b(r)))
        }
    }
}

/// `then` of a column's value, read from its typed slice (a dictionary
/// column's value is its code).
fn map_col<'t>(col: &'t ColumnData, then: impl Fn(i64) -> i64 + 't) -> RowFn<'t> {
    fn typed<'t, T: Copy + Into<i64>>(v: &'t [T], then: impl Fn(i64) -> i64 + 't) -> RowFn<'t> {
        Box::new(move |r| then(v[r].into()))
    }
    match col {
        ColumnData::I8(v) => typed(v, then),
        ColumnData::I16(v) => typed(v, then),
        ColumnData::I32(v) => typed(v, then),
        ColumnData::I64(v) => typed(v, then),
        ColumnData::U32(v) => typed(v, then),
        ColumnData::Dict(d) => typed(d.codes(), then),
    }
}

/// 0/1: whether the row's string in dictionary column `col` satisfies
/// `pred`, which runs once per dictionary entry.
fn dict_match<'t>(t: &'t Table, col: &str, pred: impl Fn(&str) -> bool) -> RowFn<'t> {
    let dict = t
        .column_required(col)
        .as_dict()
        .expect("validated dictionary column");
    let (codes, hit) = (dict.codes(), dict.matching_codes(pred));
    Box::new(move |r| hit[codes[r] as usize] as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swole_storage::DictColumn;

    fn table() -> Table {
        Table::new("t")
            .with_column("x", ColumnData::I32(vec![1, 5, 13, 20, -3]))
            .with_column("a", ColumnData::I64(vec![10, 20, 30, 40, 50]))
            .with_column(
                "s",
                ColumnData::Dict(DictColumn::encode(&[
                    "PROMO A", "STD", "PROMO B", "STD", "X",
                ])),
            )
    }

    fn values_of(e: &Expr, t: &Table) -> Vec<i64> {
        let e = e.compile(t).expect("valid");
        (0..t.len()).map(|row| e.eval(row)).collect()
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let t = table();
        let e = Expr::col("x").cmp(CmpOp::Lt, Expr::lit(13));
        assert_eq!(values_of(&e, &t), vec![1, 1, 0, 0, 1]);
        let e2 = e.clone().and(Expr::col("x").cmp(CmpOp::Gt, Expr::lit(0)));
        assert_eq!(values_of(&e2, &t), vec![1, 1, 0, 0, 0]);
        let e3 = Expr::Not(Box::new(e2.clone()));
        assert_eq!(values_of(&e3, &t), vec![0, 0, 1, 1, 1]);
        let e4 = e2.or(Expr::col("x").cmp(CmpOp::Eq, Expr::lit(13)));
        assert_eq!(values_of(&e4, &t), vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn arithmetic_and_case() {
        let t = table();
        let e = Expr::col("a").mul(Expr::lit(2));
        assert_eq!(values_of(&e, &t), vec![20, 40, 60, 80, 100]);
        let case = Expr::Case {
            when: Box::new(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(13))),
            then: Box::new(Expr::col("a")),
            otherwise: Box::new(Expr::lit(0)),
        };
        assert_eq!(values_of(&case, &t), vec![10, 20, 0, 0, 50]);
    }

    #[test]
    fn like_and_in_over_dictionary() {
        let t = table();
        let like = Expr::Like {
            col: "s".into(),
            pattern: "PROMO%".into(),
        };
        assert_eq!(values_of(&like, &t), vec![1, 0, 1, 0, 0]);
        let inlist = Expr::InList {
            col: "s".into(),
            values: vec!["STD".into(), "X".into()],
        };
        assert_eq!(values_of(&inlist, &t), vec![0, 1, 0, 1, 1]);
    }

    #[test]
    fn columns_and_comp_introspection() {
        let e = Expr::col("a")
            .mul(Expr::col("x"))
            .and(Expr::col("a").cmp(CmpOp::Lt, Expr::lit(5)));
        assert_eq!(e.columns(), vec!["a".to_string(), "x".to_string()]);
        assert!(e.comp_cycles() > 0.0);
        let div = Expr::Div(Box::new(Expr::col("a")), Box::new(Expr::col("x")));
        assert!(div.comp_cycles() > e.comp_cycles());
    }

    #[test]
    fn validation_catches_errors() {
        let t = table();
        assert!(Expr::col("missing").validate(&t).is_err());
        let bad_like = Expr::Like {
            col: "x".into(),
            pattern: "%".into(),
        };
        assert!(matches!(
            bad_like.validate(&t),
            Err(PlanError::InvalidExpr(_))
        ));
        assert!(Expr::col("x").validate(&t).is_ok());
    }
}
