//! Expressions and their block-at-a-time evaluation.
//!
//! The engine does not walk these trees while it scans: the planner lowers
//! them once into flat tile programs (`crate::tile`). Everything else that
//! evaluates an expression — the reference interpreter, the planner's
//! statistics samples, the tile programs' tests — compiles it once per
//! statement with [`Expr::compile`]: every column is resolved to its typed
//! slice and every `LIKE` / `IN` to a per-code match table, and the
//! [`BlockExpr`] it returns evaluates a block of [`BLOCK`] row ids at a
//! time with no lookup by name, one dispatch per node and block. Its reads
//! stay data-centric: `AND`, `OR` and `CASE` split the block branch-free
//! and run an operand only on the rows it decides. It shares no code with
//! the tile programs, so it stays their oracle.

use crate::error::PlanError;
use std::ops::Range;
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

    /// Compile this expression against `table` for block-at-a-time
    /// evaluation: [`Expr::validate`] it, then resolve every column to its
    /// typed slice and every `LIKE` / `IN` to a match table over its
    /// dictionary, once. The evaluator then finds nothing by name.
    pub fn compile<'t>(&self, table: &'t Table) -> Result<BlockExpr<'t>, PlanError> {
        self.validate(table)?;
        let (vals, ids) = self.scratch();
        Ok(BlockExpr {
            root: node(self, table),
            vals: vec![0; vals * BLOCK],
            ids: vec![0; ids * BLOCK],
        })
    }

    /// The bytes [`Expr::compile`]'s evaluator holds for this expression
    /// over `table`: at most a node per operator and operand, the match
    /// table of each `LIKE` / `IN`, a flag per dictionary entry, and the
    /// scratch blocks its operator nodes hold at most at once.
    pub(crate) fn compiled_bytes(&self, table: &Table) -> u64 {
        fn nodes(e: &Expr, table: &Table) -> u64 {
            let own = match e {
                Expr::Like { col, .. } | Expr::InList { col, .. } => (table.column(col))
                    .and_then(|c| c.as_dict())
                    .map_or(0, |d| d.cardinality() as u64),
                _ => 0,
            };
            e.children()
                .fold(NODE_BYTES + own, |acc, c| acc + nodes(c, table))
        }
        let (vals, ids) = self.scratch();
        nodes(self, table) + vals as u64 * VALUE_BLOCK_BYTES + ids as u64 * ID_BLOCK_BYTES
    }

    /// The most scratch the compiled evaluator of this expression holds at
    /// once, in value blocks and id blocks: an operand that runs after its
    /// node has taken its own blocks runs on top of them, one that runs
    /// before reuses them.
    fn scratch(&self) -> (usize, usize) {
        let max = |(a, b): (usize, usize), (c, d): (usize, usize)| (a.max(c), b.max(d));
        let over = |(v, i): (usize, usize), (own_v, own_i)| (v + own_v, i + own_i);
        match self {
            Expr::Col(_)
            | Expr::Lit(_)
            | Expr::Param(_)
            | Expr::Like { .. }
            | Expr::InList { .. } => (0, 0),
            Expr::Not(a) => a.scratch(),
            Expr::Cmp(_, a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b) => match fused(a, b) {
                Some(_) => (0, 0),
                None => max(a.scratch(), over(b.scratch(), (1, 0))),
            },
            Expr::And(a, b) | Expr::Or(a, b) => max(a.scratch(), over(b.scratch(), Part::BLOCKS)),
            Expr::Case {
                when,
                then,
                otherwise,
            } => {
                let branches = max(then.scratch(), otherwise.scratch());
                max(when.scratch(), over(branches, Part::BLOCKS))
            }
        }
    }
}

/// A column against a literal, the operands a binary node reads in one
/// loop: the column's name and the literal.
fn fused<'e>(a: &'e Expr, b: &Expr) -> Option<(&'e str, i64)> {
    match (a, b) {
        (Expr::Col(c), Expr::Lit(y)) => Some((c, *y)),
        _ => None,
    }
}

/// The rows a compiled expression evaluates at a time: every node of a
/// [`BlockExpr`] runs its loop over a block of this many row ids.
pub const BLOCK: usize = 256;

/// A block of values: a node's operand values, or a step's.
pub(crate) const VALUE_BLOCK_BYTES: u64 = (BLOCK * size_of::<i64>()) as u64;

/// A block of row ids.
pub(crate) const ID_BLOCK_BYTES: u64 = (BLOCK * size_of::<u32>()) as u64;

/// An [`Expr`] compiled against one table by [`Expr::compile`]: a tree of
/// nodes over the table's typed columns that evaluates a block of row ids
/// at a time, so a node dispatches once per block and its loop over the
/// block dispatches on nothing. It backs the reference interpreter and the
/// planner's statistics samples, and shares no code with the tile programs
/// (`crate::tile`), so it stays an independent oracle for them.
///
/// Its reads are still data-centric: `AND`, `OR` and `CASE` evaluate an
/// operand only on the rows where it decides the value, so a guarded
/// division never runs on a row it guards.
pub struct BlockExpr<'t> {
    root: Node<'t>,
    /// The nodes' scratch, value blocks and id blocks, used as a stack: a
    /// running node takes its blocks off the top and hands its operands
    /// the rest, and frees them when it returns.
    vals: Vec<i64>,
    ids: Vec<u32>,
}

impl BlockExpr<'_> {
    /// The expression's value at each row of `rows`, into `out` (as long
    /// as `rows`); booleans are 0/1. Runs [`BLOCK`] rows at a time.
    ///
    /// # Panics
    /// If `out` is not as long as `rows`, or a row id is out of the table.
    pub fn eval(&mut self, rows: &[u32], out: &mut [i64]) {
        assert_eq!(rows.len(), out.len(), "a value per row");
        for (ids, out) in rows.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
            let scratch = Scratch {
                vals: &mut self.vals,
                ids: &mut self.ids,
            };
            self.root.eval(ids, out, scratch);
        }
    }
}

/// The operators of two values.
#[derive(Clone, Copy)]
enum BinOp {
    Cmp(CmpOp),
    Add,
    Sub,
    Mul,
    Div,
}

/// `$body` with `$f` bound to the function of operator `$op`, so the loop
/// over a block in `$body` is compiled once per operator and dispatches
/// on nothing. Explicit wrapping arithmetic: identical results in debug
/// and release builds (division by zero still panics; the engine's
/// isolation domain converts that into a typed error).
macro_rules! with_op {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            BinOp::Add => with_op!(@ $f = i64::wrapping_add, $body),
            BinOp::Sub => with_op!(@ $f = i64::wrapping_sub, $body),
            BinOp::Mul => with_op!(@ $f = i64::wrapping_mul, $body),
            BinOp::Div => with_op!(@ $f = i64::wrapping_div, $body),
            BinOp::Cmp(CmpOp::Lt) => with_op!(@ $f = |x: i64, y: i64| (x < y) as i64, $body),
            BinOp::Cmp(CmpOp::Le) => with_op!(@ $f = |x: i64, y: i64| (x <= y) as i64, $body),
            BinOp::Cmp(CmpOp::Gt) => with_op!(@ $f = |x: i64, y: i64| (x > y) as i64, $body),
            BinOp::Cmp(CmpOp::Ge) => with_op!(@ $f = |x: i64, y: i64| (x >= y) as i64, $body),
            BinOp::Cmp(CmpOp::Eq) => with_op!(@ $f = |x: i64, y: i64| (x == y) as i64, $body),
            BinOp::Cmp(CmpOp::Ne) => with_op!(@ $f = |x: i64, y: i64| (x != y) as i64, $body),
        }
    };
    (@ $f:ident = $g:expr, $body:expr) => {{
        let $f = $g;
        $body
    }};
}

enum Node<'t> {
    Lit(i64),
    /// A column's value, or `op` of it and a literal (`x < 5`, `a * 2`, the
    /// commonest shape) in the same loop.
    Col {
        col: &'t ColumnData,
        op: Option<(BinOp, i64)>,
    },
    /// `b` is evaluated into a value block of scratch, then combined into
    /// `a`'s values.
    Binary {
        op: BinOp,
        a: Box<Node<'t>>,
        b: Box<Node<'t>>,
    },
    Not(Box<Node<'t>>),
    /// A `LIKE` / `IN`: whether each row's dictionary code is a hit.
    Match {
        codes: &'t [u32],
        hit: Vec<bool>,
    },
    /// `a AND b` (`or`: `a OR b`): `b` runs only on the rows `a` leaves
    /// undecided.
    Logic {
        or: bool,
        a: Box<Node<'t>>,
        b: Box<Node<'t>>,
    },
    Case {
        when: Box<Node<'t>>,
        then: Box<Node<'t>>,
        otherwise: Box<Node<'t>>,
    },
}

/// A node's bytes: it is boxed under its parent.
const NODE_BYTES: u64 = size_of::<Node<'static>>() as u64;

impl Node<'_> {
    /// Values of the rows `ids` (at most [`BLOCK`]) into `out`, on the
    /// scratch `s`.
    fn eval(&self, ids: &[u32], out: &mut [i64], mut s: Scratch<'_>) {
        match self {
            Node::Lit(v) => out.fill(*v),
            Node::Col { col, op: None } => gather(col, ids, out, |x| x),
            Node::Col {
                col,
                op: Some((op, y)),
            } => with_op!(op, f => gather(col, ids, out, |x| f(x, *y))),
            Node::Binary { op, a, b } => {
                a.eval(ids, out, s.reborrow());
                let (right, s) = s.values();
                let right = &mut right[..ids.len()];
                b.eval(ids, right, s);
                with_op!(op, f => out.iter_mut().zip(&*right).for_each(|(x, &y)| *x = f(*x, y)));
            }
            Node::Not(a) => {
                a.eval(ids, out, s);
                out.iter_mut().for_each(|v| *v = (*v == 0) as i64);
            }
            Node::Match { codes, hit } => {
                for (o, &r) in out.iter_mut().zip(ids) {
                    *o = hit[codes[r as usize] as usize] as i64;
                }
            }
            Node::Logic { or, a, b } => {
                a.eval(ids, out, s.reborrow());
                let held = truth(out);
                // `AND` runs `b` where `a` holds, `OR` where it fails; a
                // block that `a` decides whole needs no split.
                let undecided = if *or { ids.len() - held } else { held };
                if undecided == ids.len() {
                    b.eval(ids, out, s);
                    truth(out);
                } else if undecided > 0 {
                    let (mut part, s) = s.part();
                    part.split(ids, out);
                    let rows = if *or { held..ids.len() } else { 0..held };
                    part.eval(b, rows, out, |v| (v != 0) as i64, s);
                }
            }
            Node::Case {
                when,
                then,
                otherwise,
            } => {
                when.eval(ids, out, s.reborrow());
                let held = out.iter().filter(|&&v| v != 0).count();
                if held == ids.len() {
                    then.eval(ids, out, s);
                } else if held == 0 {
                    otherwise.eval(ids, out, s);
                } else {
                    let (mut part, mut s) = s.part();
                    part.split(ids, out);
                    part.eval(then, 0..held, out, |v| v, s.reborrow());
                    part.eval(otherwise, held..ids.len(), out, |v| v, s);
                }
            }
        }
    }
}

/// Turn `vals` into booleans, 0/1, and count the ones.
fn truth(vals: &mut [i64]) -> usize {
    vals.iter_mut().fold(0, |n, v| {
        *v = (*v != 0) as i64;
        n + *v as usize
    })
}

/// The scratch not taken by the running node and the nodes above it.
struct Scratch<'s> {
    vals: &'s mut [i64],
    ids: &'s mut [u32],
}

impl<'s> Scratch<'s> {
    fn reborrow(&mut self) -> Scratch<'_> {
        Scratch {
            vals: self.vals,
            ids: self.ids,
        }
    }

    /// A value block off the top, and the scratch under it.
    fn values(self) -> (&'s mut [i64], Scratch<'s>) {
        let (block, vals) = self.vals.split_at_mut(BLOCK);
        (
            block,
            Scratch {
                vals,
                ids: self.ids,
            },
        )
    }

    /// A [`Part`] off the top, and the scratch under it.
    fn part(self) -> (Part<'s>, Scratch<'s>) {
        let (vals, s) = self.values();
        let (ids, rest) = s.ids.split_at_mut(2 * BLOCK);
        let (pos, ids) = ids.split_at_mut(BLOCK);
        let s = Scratch {
            vals: s.vals,
            ids: rest,
        };
        (Part { pos, ids, vals }, s)
    }
}

/// A block's rows split by a condition, for the operands of `AND`, `OR`
/// and `CASE` that run on some of them: each row's position in the block
/// and its id, the rows where the condition holds at the front, and a
/// value per row for the operand evaluated over them.
struct Part<'s> {
    pos: &'s mut [u32],
    ids: &'s mut [u32],
    vals: &'s mut [i64],
}

impl Part<'_> {
    /// Its scratch: a value block and two id blocks.
    const BLOCKS: (usize, usize) = (1, 2);

    /// Split the block `ids` by `cond` without a branch: the rows where it
    /// is nonzero to the front, the others behind them (in reverse
    /// order). Each row is written at both ends of the part not yet
    /// filled and kept at the end its condition picks; the other write
    /// lands where a later row, or nothing, goes.
    fn split(&mut self, ids: &[u32], cond: &[i64]) {
        let (mut front, mut back) = (0, ids.len());
        for (i, (&id, &c)) in ids.iter().zip(cond).enumerate() {
            let held = (c != 0) as usize;
            self.pos[front] = i as u32;
            self.ids[front] = id;
            self.pos[back - 1] = i as u32;
            self.ids[back - 1] = id;
            front += held;
            back -= 1 - held;
        }
    }

    /// Evaluate `e` on the split rows in `range` and write `f` of each
    /// value to the row's position in `out`.
    fn eval(
        &mut self,
        e: &Node<'_>,
        range: Range<usize>,
        out: &mut [i64],
        f: impl Fn(i64) -> i64,
        s: Scratch<'_>,
    ) {
        let vals = &mut self.vals[range.clone()];
        e.eval(&self.ids[range.clone()], vals, s);
        for (&p, &v) in self.pos[range].iter().zip(&*vals) {
            out[p as usize] = f(v);
        }
    }
}

/// `f` of each row's value of `col`, read from its typed slice (a
/// dictionary column's value is its code), into `out`.
fn gather(col: &ColumnData, ids: &[u32], out: &mut [i64], f: impl Fn(i64) -> i64) {
    fn typed<T: Copy + Into<i64>>(v: &[T], ids: &[u32], out: &mut [i64], f: impl Fn(i64) -> i64) {
        for (o, &r) in out.iter_mut().zip(ids) {
            *o = f(v[r as usize].into());
        }
    }
    match col {
        ColumnData::I8(v) => typed(v, ids, out, f),
        ColumnData::I16(v) => typed(v, ids, out, f),
        ColumnData::I32(v) => typed(v, ids, out, f),
        ColumnData::I64(v) => typed(v, ids, out, f),
        ColumnData::U32(v) => typed(v, ids, out, f),
        ColumnData::Dict(d) => typed(d.codes(), ids, out, f),
    }
}

fn node<'t>(e: &Expr, t: &'t Table) -> Node<'t> {
    let bx = |e: &Expr| Box::new(node(e, t));
    let col = |c: &str| t.column_required(c);
    let binary = |op: BinOp, a: &Expr, b: &Expr| match fused(a, b) {
        Some((c, y)) => Node::Col {
            col: col(c),
            op: Some((op, y)),
        },
        None => Node::Binary {
            op,
            a: bx(a),
            b: bx(b),
        },
    };
    match e {
        Expr::Col(c) => Node::Col {
            col: col(c),
            op: None,
        },
        Expr::Lit(v) => Node::Lit(*v),
        // Rejected by validation.
        Expr::Param(_) => Node::Lit(0),
        Expr::Cmp(op, a, b) => binary(BinOp::Cmp(*op), a, b),
        Expr::Add(a, b) => binary(BinOp::Add, a, b),
        Expr::Sub(a, b) => binary(BinOp::Sub, a, b),
        Expr::Mul(a, b) => binary(BinOp::Mul, a, b),
        Expr::Div(a, b) => binary(BinOp::Div, a, b),
        Expr::And(a, b) | Expr::Or(a, b) => Node::Logic {
            or: matches!(e, Expr::Or(..)),
            a: bx(a),
            b: bx(b),
        },
        Expr::Not(a) => Node::Not(bx(a)),
        Expr::Like { col, pattern } => dict_match(t, col, |v| like_match(pattern, v)),
        Expr::InList { col, values } => dict_match(t, col, |v| values.iter().any(|s| s == v)),
        Expr::Case {
            when,
            then,
            otherwise,
        } => Node::Case {
            when: bx(when),
            then: bx(then),
            otherwise: bx(otherwise),
        },
    }
}

/// Whether the row's string in dictionary column `col` satisfies `pred`,
/// which runs once per dictionary entry.
fn dict_match<'t>(t: &'t Table, col: &str, pred: impl Fn(&str) -> bool) -> Node<'t> {
    let dict = t
        .column_required(col)
        .as_dict()
        .expect("validated dictionary column");
    Node::Match {
        codes: dict.codes(),
        hit: dict.matching_codes(pred),
    }
}

/// `e`'s value at every row of `t`, in row order.
#[cfg(test)]
pub(crate) fn values(e: &Expr, t: &Table) -> Vec<i64> {
    let rows: Vec<u32> = (0..t.len() as u32).collect();
    let mut out = vec![0; rows.len()];
    e.compile(t).expect("valid").eval(&rows, &mut out);
    out
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

    #[test]
    fn comparisons_and_boolean_logic() {
        let t = table();
        let e = Expr::col("x").cmp(CmpOp::Lt, Expr::lit(13));
        assert_eq!(values(&e, &t), vec![1, 1, 0, 0, 1]);
        let e2 = e.clone().and(Expr::col("x").cmp(CmpOp::Gt, Expr::lit(0)));
        assert_eq!(values(&e2, &t), vec![1, 1, 0, 0, 0]);
        let e3 = Expr::Not(Box::new(e2.clone()));
        assert_eq!(values(&e3, &t), vec![0, 0, 1, 1, 1]);
        let e4 = e2.or(Expr::col("x").cmp(CmpOp::Eq, Expr::lit(13)));
        assert_eq!(values(&e4, &t), vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn arithmetic_and_case() {
        let t = table();
        let e = Expr::col("a").mul(Expr::lit(2));
        assert_eq!(values(&e, &t), vec![20, 40, 60, 80, 100]);
        let case = Expr::Case {
            when: Box::new(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(13))),
            then: Box::new(Expr::col("a")),
            otherwise: Box::new(Expr::lit(0)),
        };
        assert_eq!(values(&case, &t), vec![10, 20, 0, 0, 50]);
    }

    #[test]
    fn like_and_in_over_dictionary() {
        let t = table();
        let like = Expr::Like {
            col: "s".into(),
            pattern: "PROMO%".into(),
        };
        assert_eq!(values(&like, &t), vec![1, 0, 1, 0, 0]);
        let inlist = Expr::InList {
            col: "s".into(),
            values: vec!["STD".into(), "X".into()],
        };
        assert_eq!(values(&inlist, &t), vec![0, 1, 0, 1, 1]);
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
