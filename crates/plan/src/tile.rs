//! Flat tile programs: the served form of the paper's generated loops.
//!
//! The planner lowers a pipeline stage's filter and aggregate inputs once,
//! at plan time, into a [`TileProgram`] — a short instruction list over
//! typed registers (`u8` 0/1 masks, the `cmp` arrays of the paper's
//! figures, and widened `i64` values). Comparisons against a literal run
//! straight on the column's native-width slice through
//! `swole_kernels::predicate`; common sub-expressions and column loads are
//! shared across aggregates (the served-path form of access merging,
//! § III-C); top-level `col OP col` sums — and a sum of one operand, a
//! column or any other expression's register — are left unevaluated so the
//! scalar sinks — the masked probe's included — can hand the slices to the
//! `swole_kernels::agg::fold` kernel and the grouped sinks — which also
//! read the group key at native width, never from a register — to the
//! `groupby::upsert` kernel. Binding a program to a pinned table
//! ([`TileProgram::bind`])
//! resolves column positions and evaluates every dictionary predicate once
//! per query; running it ([`BoundProgram::run`]) against a per-worker
//! [`Regs`] file allocates nothing, looks nothing up by name and never
//! recurses. [`crate::Expr::compile`]'s block evaluator, which shares no
//! code with these programs, stays the interpreter oracle.

use std::marker::PhantomData;
use std::sync::Arc;

use swole_bitmap::Bits;
use swole_ht::{GroupTable, MergeOp};
use swole_kernels::agg::{self, Div, Mul};
use swole_kernels::groupby::{self, Folds, Lanes, Slot};
use swole_kernels::{predicate, selvec, AsI64, TILE};
use swole_storage::{like_match, ColumnData, DataType, Table};
use swole_verify::OverflowProof;

use crate::error::PlanError;
use crate::expr::{AggFunc, CmpOp, Expr};
use crate::logical::AggSpec;
use crate::physical::{self, Membership};

/// Arithmetic operator of an [`Instr::Arith`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// A value operand: an `i64` register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Val {
    Reg(usize),
    Lit(i64),
}

/// A fused-sink operand: a column read at native width or a value register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    Col(usize),
    Reg(usize),
}

/// The operator a fused sum applies between its two operands — the `[OP]`
/// of microbenchmark Q1, the two `swole_kernels::agg::BinOp`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedOp {
    Mul,
    Div,
}

/// A sum's input, left for a fused sink to evaluate while it accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedSum {
    /// `sum(a)`: one operand, read once per lane.
    One(Src),
    /// `sum(a OP b)`.
    Op(FusedOp, Src, Src),
}

/// One value output of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Output {
    /// Materialized in a value register.
    Reg(usize),
    /// Unevaluated, for a fused sink.
    Op(FusedSum),
}

/// What the caller wants lowered for one output position.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Want<'a> {
    /// Nothing (keeps positions aligned with the caller's list).
    Skip,
    /// The expression's value in a register.
    Reg(&'a Expr),
    /// An [`Output::Op`] for a fused sum sink: `x * y` or `x / y` over
    /// columns and literals stays unevaluated; any other expression is one
    /// operand — a bare column, or the register holding its value.
    Fused(&'a Expr),
}

/// One instruction. Mask registers hold 0/1 bytes, value registers `i64`;
/// every destination differs from the instruction's sources.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Instr {
    /// `mask[dst] = col OP lit` on the native-width column slice.
    CmpColLit {
        op: CmpOp,
        col: usize,
        lit: i64,
        dst: usize,
    },
    /// `mask[dst] = val[a] OP b`.
    CmpVal {
        op: CmpOp,
        a: usize,
        b: Val,
        dst: usize,
    },
    /// `mask[dst] = matches[dict][code]` — LIKE / IN over a dictionary.
    DictMatch { dict: usize, dst: usize },
    /// `mask[dst] = val[src] != 0`.
    NonZero { src: usize, dst: usize },
    /// `mask[dst] = mask[src]`.
    CopyMask { src: usize, dst: usize },
    /// `mask[dst] = mask[a] & mask[b]`.
    And { a: usize, b: usize, dst: usize },
    /// `mask[dst] = mask[a] | mask[b]`.
    Or { a: usize, b: usize, dst: usize },
    /// `mask[dst] = 1 - mask[src]`.
    Not { src: usize, dst: usize },
    /// `val[dst] = widen(col)`.
    Load { col: usize, dst: usize },
    /// `val[dst] = a OP b`, wrapping (division by zero panics).
    Arith {
        op: ArithOp,
        a: Val,
        b: Val,
        dst: usize,
    },
    /// `val[dst] = mask ? then : otherwise` — CASE by value masking
    /// (§ III-A): both branches were evaluated unconditionally.
    Blend {
        mask: usize,
        then: Val,
        otherwise: Val,
        dst: usize,
    },
    /// `val[dst] = mask[mask] as i64`.
    MaskToVal { mask: usize, dst: usize },
}

#[derive(Debug, Clone)]
pub(crate) struct ColSlot {
    pub(crate) name: String,
    ty: DataType,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DictMatcher {
    Like(String),
    In(Vec<String>),
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DictPred {
    pub(crate) col: usize,
    pub(crate) matcher: DictMatcher,
}

/// A lowered pipeline stage. Immutable and table-independent apart from
/// column names and types, so it is cached with the physical plan — whose
/// `Debug` rendering is what the plan cache sizes an entry by, so the
/// derived `Debug` here is also the program's share of that accounting
/// (instruction list, column names and LIKE / IN patterns).
#[derive(Debug, Clone)]
pub(crate) struct TileProgram {
    pub(crate) cols: Vec<ColSlot>,
    pub(crate) dicts: Vec<DictPred>,
    pub(crate) instrs: Vec<Instr>,
    n_masks: usize,
    n_vals: usize,
    /// Registers filled once per worker and never written by an instruction.
    pub(crate) const_masks: Vec<(usize, u8)>,
    pub(crate) const_vals: Vec<(usize, i64)>,
    /// Mask register holding the filter result (all ones without a filter).
    pub(crate) filter: usize,
    has_filter: bool,
    outputs: Vec<Option<Output>>,
    /// Column slot of the group key, which the grouped sinks read at native
    /// width. `None` for an ungrouped stage — and for a grouped join, whose
    /// key is the FK slice its edge is probed through.
    pub(crate) key: Option<usize>,
}

impl TileProgram {
    /// Lower `filter` and one output per entry of `wants`.
    pub(crate) fn lower(
        table: &Table,
        filter: Option<&Expr>,
        wants: &[Want<'_>],
    ) -> Result<TileProgram, PlanError> {
        TileProgram::lower_keyed(table, filter, wants, None, false)
    }

    /// Lower a semijoin build's `filter`: the build ANDs its chain edges'
    /// membership into the filter mask in place, so that mask is a register
    /// the program rewrites every tile even when it is constant.
    pub(crate) fn lower_build(
        table: &Table,
        filter: Option<&Expr>,
    ) -> Result<TileProgram, PlanError> {
        TileProgram::lower_keyed(table, filter, &[], None, true)
    }

    fn lower_keyed(
        table: &Table,
        filter: Option<&Expr>,
        wants: &[Want<'_>],
        key: Option<&str>,
        build: bool,
    ) -> Result<TileProgram, PlanError> {
        let mut lw = Lowerer::new(table);
        let filter_node = match filter {
            Some(f) => lw.mask(f)?,
            None => lw.node(Node::ConstMask(true)),
        };
        let mut outs = Vec::with_capacity(wants.len());
        for w in wants {
            outs.push(match w {
                Want::Skip => None,
                Want::Reg(e) => {
                    let v = lw.value(e)?;
                    Some(VOut::Node(lw.materialize(v)))
                }
                Want::Fused(e) => Some(lw.fused(e)?),
            });
        }
        let key = key.map(|k| lw.col(k)).transpose()?;
        Ok(lw.finish(filter_node, filter.is_some(), outs, key, build))
    }

    /// Lower an aggregation stage: the filter, the aggregates' inputs
    /// (output `i` belongs to `aggs[i]`; `count` has none) and the column
    /// slot of `key`, the group key a zero-edge grouped stage reads. Sum
    /// inputs stay [`Output::Op`]s where a sink fuses them — every scalar
    /// stage, and a grouped stage whose one aggregate is a sum
    /// ([`group_sink`]); everything else is materialized in registers — the
    /// inputs of a compiled `sum` / `count` list and of the `min` / `max`
    /// loop.
    pub(crate) fn lower_agg(
        table: &Table,
        filter: Option<&Expr>,
        key: Option<&str>,
        aggs: &[AggSpec],
        grouped: bool,
    ) -> Result<TileProgram, PlanError> {
        let fuse_sums = !grouped || matches!(aggs, [a] if a.func == AggFunc::Sum);
        let wants: Vec<Want<'_>> = aggs
            .iter()
            .map(|a| match a.func {
                AggFunc::Count => Want::Skip,
                AggFunc::Sum if fuse_sums => Want::Fused(&a.expr),
                _ => Want::Reg(&a.expr),
            })
            .collect();
        TileProgram::lower_keyed(table, filter, &wants, key, false)
    }

    /// Bytes of one worker's [`Regs`] file plus one accumulator slot per
    /// output — the single definition of per-worker scratch that the gauge
    /// charge, the verifier lowering and the bounds pass all read.
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.n_masks * TILE + (self.n_vals + 1) * TILE * 8 + TILE * 4 + self.outputs.len() * 8
    }

    /// Output `i`, as lowered.
    pub(crate) fn output(&self, i: usize) -> Option<Output> {
        self.outputs[i]
    }

    /// The register holding materialized output `i`. Panics on a fused or
    /// absent output: callers ask only for what they lowered unfused.
    pub(crate) fn output_reg(&self, i: usize) -> usize {
        match self.outputs[i] {
            Some(Output::Reg(r)) => r,
            other => panic!("tile program output {i} is {other:?}, not a register"),
        }
    }

    /// `true` when the stage has a filter (the mask is not constant ones).
    pub(crate) fn has_filter(&self) -> bool {
        self.has_filter
    }

    /// Resolve the program against a pinned table: column positions by
    /// name and one match table per dictionary predicate, evaluated once
    /// per query. A column whose stored integer width changed since
    /// planning (a reload narrowed or widened it) binds the program
    /// re-fitted to the new width ([`TileProgram::refitted`]); a dropped
    /// column or a dictionary ↔ integer change is a typed error.
    pub(crate) fn bind(self: &Arc<Self>, table: &Arc<Table>) -> Result<BoundProgram, PlanError> {
        let mut cols = Vec::with_capacity(self.cols.len());
        let mut retyped = false;
        for slot in &self.cols {
            let idx = table
                .column_index(&slot.name)
                .ok_or_else(|| PlanError::UnknownColumn {
                    table: table.name().to_string(),
                    column: slot.name.clone(),
                })?;
            let ty = table.column_at(idx).data_type();
            if (ty == DataType::Dict) != (slot.ty == DataType::Dict) {
                return Err(PlanError::ExecutionFailed(format!(
                    "column {}.{} is {ty:?} but the plan was lowered for {:?}",
                    table.name(),
                    slot.name,
                    slot.ty
                )));
            }
            retyped |= ty != slot.ty;
            cols.push(idx);
        }
        let prog = match retyped {
            true => Arc::new(self.refitted(table, &cols)),
            false => Arc::clone(self),
        };
        let matches = self
            .dicts
            .iter()
            .map(|d| {
                #[cfg(test)]
                tests::MATCH_TABLES_BUILT.with(|c| c.set(c.get() + 1));
                let ColumnData::Dict(dict) = table.column_at(cols[d.col]) else {
                    unreachable!("slot type checked above");
                };
                match &d.matcher {
                    DictMatcher::Like(p) => dict.matching_codes(|v| like_match(p, v)),
                    DictMatcher::In(vals) => dict.matching_codes(|v| vals.iter().any(|x| x == v)),
                }
            })
            .collect();
        Ok(BoundProgram {
            prog,
            table: Arc::clone(table),
            cols,
            matches,
        })
    }

    /// This program re-lowered for `table`, whose columns at `cols` (slot
    /// order) have the same kinds as the slots but not all the same integer
    /// widths. A literal comparison is the only lowering that depends on a
    /// width: one whose literal is outside its column's new range compares
    /// every row the same way, so it becomes the equivalent comparison
    /// against the nearest bound of that range. Registers, outputs and
    /// scratch stay the ones the sinks and the certificate were built for.
    fn refitted(&self, table: &Table, cols: &[usize]) -> TileProgram {
        let mut prog = self.clone();
        for (slot, &idx) in prog.cols.iter_mut().zip(cols) {
            slot.ty = table.column_at(idx).data_type();
        }
        for ins in &mut prog.instrs {
            if let Instr::CmpColLit { op, col, lit, .. } = ins {
                (*op, *lit) = refit(*op, prog.cols[*col].ty, *lit);
            }
        }
        prog
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VVal {
    Node(usize),
    Lit(i64),
}

/// A node of the expression DAG, compared structurally so equal
/// sub-expressions (and repeated column loads) collapse into one.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    CmpColLit(CmpOp, usize, i64),
    CmpVal(CmpOp, usize, VVal),
    DictMatch(usize),
    NonZero(usize),
    And(usize, usize),
    Or(usize, usize),
    Not(usize),
    ConstMask(bool),
    Load(usize),
    ConstVal(i64),
    Arith(ArithOp, VVal, VVal),
    Blend(usize, VVal, VVal),
    MaskToVal(usize),
}

impl Node {
    fn is_mask(&self) -> bool {
        !matches!(
            self,
            Node::Load(_)
                | Node::ConstVal(_)
                | Node::Arith(..)
                | Node::Blend(..)
                | Node::MaskToVal(_)
        )
    }

    fn is_const(&self) -> bool {
        matches!(self, Node::ConstMask(_) | Node::ConstVal(_))
    }
}

/// A lowered output before register assignment.
enum VOut {
    Node(usize),
    One(VSrc),
    Op(FusedOp, VSrc, VSrc),
}

enum VSrc {
    Col(usize),
    Node(usize),
}

struct Lowerer<'a> {
    table: &'a Table,
    cols: Vec<ColSlot>,
    dicts: Vec<DictPred>,
    nodes: Vec<Node>,
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// The values a column of type `ty` holds (dictionary codes are `u32`).
fn type_range(ty: DataType) -> (i64, i64) {
    match ty {
        DataType::I8 => (i8::MIN.into(), i8::MAX.into()),
        DataType::I16 => (i16::MIN.into(), i16::MAX.into()),
        DataType::I32 => (i32::MIN.into(), i32::MAX.into()),
        DataType::I64 => (i64::MIN, i64::MAX),
        DataType::U32 | DataType::Dict => (0, u32::MAX.into()),
    }
}

/// Whether `lit` is representable in the column's native type, so the
/// comparison can run without widening.
fn fits(ty: DataType, lit: i64) -> bool {
    let (lo, hi) = type_range(ty);
    (lo..=hi).contains(&lit)
}

/// `col OP lit` over a column of type `ty`, with the literal in that type's
/// range. Past the range every row compares alike: above it `<`, `<=` and
/// `!=` hold everywhere (`col <= hi`) and the rest nowhere (`col > hi`);
/// below it `>`, `>=` and `!=` hold everywhere (`col >= lo`) and the rest
/// nowhere (`col < lo`).
fn refit(op: CmpOp, ty: DataType, lit: i64) -> (CmpOp, i64) {
    let (lo, hi) = type_range(ty);
    if lit > hi {
        let all = matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Ne);
        (if all { CmpOp::Le } else { CmpOp::Gt }, hi)
    } else if lit < lo {
        let all = matches!(op, CmpOp::Gt | CmpOp::Ge | CmpOp::Ne);
        (if all { CmpOp::Ge } else { CmpOp::Lt }, lo)
    } else {
        (op, lit)
    }
}

fn val(phys: &[usize], v: &VVal) -> Val {
    match v {
        VVal::Node(n) => Val::Reg(phys[*n]),
        VVal::Lit(x) => Val::Lit(*x),
    }
}

impl<'a> Lowerer<'a> {
    fn new(table: &'a Table) -> Lowerer<'a> {
        Lowerer {
            table,
            cols: Vec::new(),
            dicts: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Intern `n`: an equal node already in the DAG is reused. Programs are
    /// a few dozen nodes, so a linear scan beats hashing them.
    fn node(&mut self, n: Node) -> usize {
        self.nodes.iter().position(|x| *x == n).unwrap_or_else(|| {
            self.nodes.push(n);
            self.nodes.len() - 1
        })
    }

    fn col(&mut self, name: &str) -> Result<usize, PlanError> {
        if let Some(i) = self.cols.iter().position(|c| c.name == name) {
            return Ok(i);
        }
        let col = self
            .table
            .column(name)
            .ok_or_else(|| PlanError::UnknownColumn {
                table: self.table.name().to_string(),
                column: name.to_string(),
            })?;
        self.cols.push(ColSlot {
            name: name.to_string(),
            ty: col.data_type(),
        });
        Ok(self.cols.len() - 1)
    }

    fn dict(&mut self, col: &str, matcher: DictMatcher) -> Result<usize, PlanError> {
        let col_slot = self.col(col)?;
        if self.cols[col_slot].ty != DataType::Dict {
            return Err(PlanError::InvalidExpr(format!(
                "LIKE/IN requires a dictionary column, {col} is not"
            )));
        }
        let pred = DictPred {
            col: col_slot,
            matcher,
        };
        if let Some(i) = self.dicts.iter().position(|d| *d == pred) {
            return Ok(i);
        }
        self.dicts.push(pred);
        Ok(self.dicts.len() - 1)
    }

    /// Lower `e` in boolean context to a mask node.
    fn mask(&mut self, e: &Expr) -> Result<usize, PlanError> {
        Ok(match e {
            Expr::And(a, b) | Expr::Or(a, b) => {
                let (a, b) = (self.mask(a)?, self.mask(b)?);
                if a == b {
                    a
                } else if matches!(e, Expr::And(..)) {
                    self.node(Node::And(a.min(b), a.max(b)))
                } else {
                    self.node(Node::Or(a.min(b), a.max(b)))
                }
            }
            Expr::Not(a) => {
                let a = self.mask(a)?;
                self.node(Node::Not(a))
            }
            Expr::Cmp(op, a, b) => match (&**a, &**b) {
                (Expr::Lit(x), Expr::Lit(y)) => self.node(Node::ConstMask(op.apply(*x, *y))),
                (Expr::Lit(x), other) => self.cmp(flip(*op), other, *x)?,
                (other, Expr::Lit(y)) => self.cmp(*op, other, *y)?,
                (a, b) => {
                    let a = self.value(a)?;
                    let a = self.materialize(a);
                    let b = self.value(b)?;
                    self.node(Node::CmpVal(*op, a, b))
                }
            },
            Expr::Like { col, pattern } => {
                let d = self.dict(col, DictMatcher::Like(pattern.clone()))?;
                self.node(Node::DictMatch(d))
            }
            Expr::InList { col, values } => {
                let d = self.dict(col, DictMatcher::In(values.clone()))?;
                self.node(Node::DictMatch(d))
            }
            // Generic: nonzero value ⇒ true.
            other => match self.value(other)? {
                VVal::Lit(v) => self.node(Node::ConstMask(v != 0)),
                VVal::Node(n) => self.node(Node::NonZero(n)),
            },
        })
    }

    /// `lhs OP lit`: native-width when `lhs` is a column the literal fits.
    fn cmp(&mut self, op: CmpOp, lhs: &Expr, lit: i64) -> Result<usize, PlanError> {
        if let Expr::Col(name) = lhs {
            let c = self.col(name)?;
            if fits(self.cols[c].ty, lit) {
                return Ok(self.node(Node::CmpColLit(op, c, lit)));
            }
        }
        let a = self.value(lhs)?;
        let a = self.materialize(a);
        Ok(self.node(Node::CmpVal(op, a, VVal::Lit(lit))))
    }

    /// Lower `e` in value context.
    fn value(&mut self, e: &Expr) -> Result<VVal, PlanError> {
        let arith = |op| move |a, b| Node::Arith(op, a, b);
        let (mk, a, b): (_, &Expr, &Expr) = match e {
            Expr::Col(name) => {
                let c = self.col(name)?;
                return Ok(VVal::Node(self.node(Node::Load(c))));
            }
            Expr::Lit(v) => return Ok(VVal::Lit(*v)),
            // Unreachable after validation; evaluates defensively as 0.
            Expr::Param(_) => return Ok(VVal::Lit(0)),
            Expr::Add(a, b) => (arith(ArithOp::Add), a, b),
            Expr::Sub(a, b) => (arith(ArithOp::Sub), a, b),
            Expr::Mul(a, b) => (arith(ArithOp::Mul), a, b),
            Expr::Div(a, b) => (arith(ArithOp::Div), a, b),
            Expr::Case {
                when,
                then,
                otherwise,
            } => {
                let m = self.mask(when)?;
                let (t, o) = (self.value(then)?, self.value(otherwise)?);
                return Ok(VVal::Node(self.node(Node::Blend(m, t, o))));
            }
            boolean => {
                let m = self.mask(boolean)?;
                return Ok(VVal::Node(self.node(Node::MaskToVal(m))));
            }
        };
        let (mut a, b) = (self.value(a)?, self.value(b)?);
        // Literal arithmetic is not folded: it must wrap — or panic on a
        // zero divisor — inside the tile loop, exactly like the block evaluator.
        if let (VVal::Lit(x), VVal::Lit(_)) = (a, b) {
            a = VVal::Node(self.node(Node::ConstVal(x)));
        }
        Ok(VVal::Node(self.node(mk(a, b))))
    }

    fn materialize(&mut self, v: VVal) -> usize {
        match v {
            VVal::Node(n) => n,
            VVal::Lit(x) => self.node(Node::ConstVal(x)),
        }
    }

    /// `e` as a fused-sink input: its own two operands when the shape
    /// allows, otherwise one operand — the column, or its value's register.
    fn fused(&mut self, e: &Expr) -> Result<VOut, PlanError> {
        let operand = |e: &Expr| matches!(e, Expr::Col(_) | Expr::Lit(_));
        let op = match e {
            Expr::Mul(a, b) if operand(a) && operand(b) => Some((FusedOp::Mul, a, b)),
            Expr::Div(a, b) if operand(a) && operand(b) => Some((FusedOp::Div, a, b)),
            _ => None,
        };
        let mut src = |e: &Expr| -> Result<VSrc, PlanError> {
            Ok(match e {
                Expr::Col(name) => VSrc::Col(self.col(name)?),
                other => {
                    let v = self.value(other)?;
                    VSrc::Node(self.materialize(v))
                }
            })
        };
        Ok(match op {
            Some((op, a, b)) => VOut::Op(op, src(a)?, src(b)?),
            None => VOut::One(src(e)?),
        })
    }

    /// Give every node a register of its own, in its class, and emit the
    /// instruction list. Nodes are interned after their operands, so node
    /// order is evaluation order.
    fn finish(
        self,
        filter: usize,
        has_filter: bool,
        outs: Vec<Option<VOut>>,
        key: Option<usize>,
        build: bool,
    ) -> TileProgram {
        let mut phys = Vec::with_capacity(self.nodes.len());
        let (mut n_masks, mut n_vals) = (0usize, 0usize);
        let (mut const_masks, mut const_vals) = (Vec::new(), Vec::new());
        let mut instrs = Vec::new();
        for node in &self.nodes {
            let count = if node.is_mask() {
                &mut n_masks
            } else {
                &mut n_vals
            };
            let dst = *count;
            *count += 1;
            match node {
                // Filled once per worker, never written by an instruction.
                Node::ConstMask(b) => const_masks.push((dst, *b as u8)),
                Node::ConstVal(v) => const_vals.push((dst, *v)),
                Node::And(a, b) => instrs.push(Instr::And {
                    a: phys[*a],
                    b: phys[*b],
                    dst,
                }),
                Node::Or(a, b) => instrs.push(Instr::Or {
                    a: phys[*a],
                    b: phys[*b],
                    dst,
                }),
                Node::Not(a) => instrs.push(Instr::Not { src: phys[*a], dst }),
                Node::CmpColLit(op, col, lit) => instrs.push(Instr::CmpColLit {
                    op: *op,
                    col: *col,
                    lit: *lit,
                    dst,
                }),
                Node::CmpVal(op, a, b) => instrs.push(Instr::CmpVal {
                    op: *op,
                    a: phys[*a],
                    b: val(&phys, b),
                    dst,
                }),
                Node::DictMatch(d) => instrs.push(Instr::DictMatch { dict: *d, dst }),
                Node::NonZero(a) => instrs.push(Instr::NonZero { src: phys[*a], dst }),
                Node::Load(c) => instrs.push(Instr::Load { col: *c, dst }),
                Node::Arith(op, a, b) => instrs.push(Instr::Arith {
                    op: *op,
                    a: val(&phys, a),
                    b: val(&phys, b),
                    dst,
                }),
                Node::Blend(m, t, o) => instrs.push(Instr::Blend {
                    mask: phys[*m],
                    then: val(&phys, t),
                    otherwise: val(&phys, o),
                    dst,
                }),
                Node::MaskToVal(m) => instrs.push(Instr::MaskToVal {
                    mask: phys[*m],
                    dst,
                }),
            }
            phys.push(dst);
        }
        // A build folds its chain edges' bits into the filter mask after
        // the program ran, so its mask must be a register an instruction
        // rewrites every tile — never a shared constant. Nothing writes
        // any other stage's mask: a constant one is read where it is.
        let mut filter_reg = phys[filter];
        if build && self.nodes[filter].is_const() {
            instrs.push(Instr::CopyMask {
                src: filter_reg,
                dst: n_masks,
            });
            filter_reg = n_masks;
            n_masks += 1;
        }
        let src = |s: &VSrc| match s {
            VSrc::Col(c) => Src::Col(*c),
            VSrc::Node(n) => Src::Reg(phys[*n]),
        };
        let outputs = outs
            .iter()
            .map(|o| {
                o.as_ref().map(|o| match o {
                    VOut::Node(n) => Output::Reg(phys[*n]),
                    VOut::One(a) => Output::Op(FusedSum::One(src(a))),
                    VOut::Op(op, a, b) => Output::Op(FusedSum::Op(*op, src(a), src(b))),
                })
            })
            .collect();
        TileProgram {
            cols: self.cols,
            dicts: self.dicts,
            instrs,
            n_masks,
            n_vals,
            const_masks,
            const_vals,
            filter: filter_reg,
            has_filter,
            outputs,
            key,
        }
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// One worker's register file, allocated once in the morsel `init`: the
/// program's mask and value registers, a selection vector and one spare
/// value buffer (key masking's masked keys, access merging's `tmp`).
pub(crate) struct Regs {
    masks: Vec<Vec<u8>>,
    vals: Vec<Vec<i64>>,
    /// Tile selection vector.
    pub(crate) idx: Vec<u32>,
    /// Whether the last tile compacted into `idx` was sparse.
    sparse: bool,
    /// Spare value buffer.
    pub(crate) tmp: Vec<i64>,
}

impl Regs {
    pub(crate) fn new(prog: &TileProgram) -> Regs {
        let mut masks = vec![vec![0u8; TILE]; prog.n_masks];
        let mut vals = vec![vec![0i64; TILE]; prog.n_vals];
        for &(r, b) in &prog.const_masks {
            masks[r].fill(b);
        }
        for &(r, v) in &prog.const_vals {
            vals[r].fill(v);
        }
        Regs {
            masks,
            vals,
            idx: vec![0u32; TILE],
            sparse: false,
            tmp: vec![0i64; TILE],
        }
    }

    /// A value register.
    pub(crate) fn val(&self, r: usize) -> &[i64] {
        &self.vals[r]
    }
}

/// A native-width view of one tile of a column or value register.
#[derive(Clone, Copy)]
pub(crate) enum Lane<'a> {
    I8(&'a [i8]),
    I16(&'a [i16]),
    I32(&'a [i32]),
    I64(&'a [i64]),
    U32(&'a [u32]),
}

/// Run `$body` with `$v` bound to the lane's typed slice.
macro_rules! with_lane {
    ($lane:expr, |$v:ident| $body:expr) => {
        match $lane {
            Lane::I8($v) => $body,
            Lane::I16($v) => $body,
            Lane::I32($v) => $body,
            Lane::I64($v) => $body,
            Lane::U32($v) => $body,
        }
    };
}

/// A value operand resolved for one tile.
#[derive(Clone, Copy)]
enum L<'a> {
    S(&'a [i64]),
    C(i64),
}

fn operand(vals: &[Vec<i64>], v: Val, len: usize) -> L<'_> {
    match v {
        Val::Reg(i) => L::S(&vals[i][..len]),
        Val::Lit(x) => L::C(x),
    }
}

#[inline(always)]
fn map2(a: L<'_>, b: L<'_>, out: &mut [i64], f: impl Fn(i64, i64) -> i64) {
    match (a, b) {
        (L::S(a), L::S(b)) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
        (L::S(a), L::C(y)) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x, y);
            }
        }
        (L::C(x), L::S(b)) => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = f(x, y);
            }
        }
        (L::C(x), L::C(y)) => {
            if let Some(first) = out.first_mut() {
                *first = f(x, y);
                let v = *first;
                out.fill(v);
            }
        }
    }
}

#[inline(always)]
fn cmp2(a: &[i64], b: L<'_>, out: &mut [u8], f: impl Fn(i64, i64) -> bool) {
    match b {
        L::S(b) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y) as u8;
            }
        }
        L::C(y) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x, y) as u8;
            }
        }
    }
}

#[inline(always)]
fn mask2(a: &[u8], b: &[u8], out: &mut [u8], f: impl Fn(u8, u8) -> u8) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

fn cmp_native<T: Copy + PartialOrd>(op: CmpOp, data: &[T], lit: T, out: &mut [u8]) {
    match op {
        CmpOp::Lt => predicate::cmp_lt(data, lit, out),
        CmpOp::Le => predicate::cmp_le(data, lit, out),
        CmpOp::Gt => predicate::cmp_gt(data, lit, out),
        CmpOp::Ge => predicate::cmp_ge(data, lit, out),
        CmpOp::Eq => predicate::cmp_eq(data, lit, out),
        CmpOp::Ne => predicate::cmp_ne(data, lit, out),
    }
}

fn widen_into<T: AsI64>(data: &[T], out: &mut [i64]) {
    for (o, &x) in out.iter_mut().zip(data) {
        *o = x.widen();
    }
}

/// A program resolved against one pinned table for one query.
pub(crate) struct BoundProgram {
    prog: Arc<TileProgram>,
    table: Arc<Table>,
    /// Slot → column position in `table`.
    cols: Vec<usize>,
    /// One match table per dictionary predicate.
    matches: Vec<Vec<bool>>,
}

impl BoundProgram {
    /// The program this binding runs.
    pub(crate) fn program(&self) -> &TileProgram {
        &self.prog
    }

    /// Rows `[start, start + len)` of a column slot at native width
    /// (dictionary columns as their codes).
    pub(crate) fn lane(&self, slot: usize, start: usize, len: usize) -> Lane<'_> {
        let end = start + len;
        match self.table.column_at(self.cols[slot]) {
            ColumnData::I8(v) => Lane::I8(&v[start..end]),
            ColumnData::I16(v) => Lane::I16(&v[start..end]),
            ColumnData::I32(v) => Lane::I32(&v[start..end]),
            ColumnData::I64(v) => Lane::I64(&v[start..end]),
            ColumnData::U32(v) => Lane::U32(&v[start..end]),
            ColumnData::Dict(d) => Lane::U32(&d.codes()[start..end]),
        }
    }

    /// Evaluate every instruction over rows `[start, start + len)`,
    /// `len <= TILE`. Afterwards the filter mask and the materialized
    /// outputs are valid in `r[..len]`.
    pub(crate) fn run(&self, r: &mut Regs, start: usize, len: usize) {
        for ins in &self.prog.instrs {
            match *ins {
                Instr::CmpColLit { op, col, lit, dst } => {
                    let out = &mut r.masks[dst][..len];
                    // `lit` fits the column's type: checked when lowering,
                    // re-fitted when binding to a column since retyped.
                    match self.lane(col, start, len) {
                        Lane::I8(d) => cmp_native(op, d, lit as i8, out),
                        Lane::I16(d) => cmp_native(op, d, lit as i16, out),
                        Lane::I32(d) => cmp_native(op, d, lit as i32, out),
                        Lane::I64(d) => cmp_native(op, d, lit, out),
                        Lane::U32(d) => cmp_native(op, d, lit as u32, out),
                    }
                }
                Instr::CmpVal { op, a, b, dst } => {
                    let (a, b) = (&r.vals[a][..len], operand(&r.vals, b, len));
                    let out = &mut r.masks[dst][..len];
                    match op {
                        CmpOp::Lt => cmp2(a, b, out, |x, y| x < y),
                        CmpOp::Le => cmp2(a, b, out, |x, y| x <= y),
                        CmpOp::Gt => cmp2(a, b, out, |x, y| x > y),
                        CmpOp::Ge => cmp2(a, b, out, |x, y| x >= y),
                        CmpOp::Eq => cmp2(a, b, out, |x, y| x == y),
                        CmpOp::Ne => cmp2(a, b, out, |x, y| x != y),
                    }
                }
                Instr::DictMatch { dict, dst } => {
                    let Lane::U32(codes) = self.lane(self.prog.dicts[dict].col, start, len) else {
                        unreachable!("dictionary slot type checked when binding");
                    };
                    predicate::in_code_table(codes, &self.matches[dict], &mut r.masks[dst][..len]);
                }
                Instr::NonZero { src, dst } => {
                    for (o, &v) in r.masks[dst][..len].iter_mut().zip(&r.vals[src][..len]) {
                        *o = (v != 0) as u8;
                    }
                }
                Instr::CopyMask { src, dst } => {
                    let mut d = std::mem::take(&mut r.masks[dst]);
                    d[..len].copy_from_slice(&r.masks[src][..len]);
                    r.masks[dst] = d;
                }
                Instr::And { a, b, dst } => {
                    let mut d = std::mem::take(&mut r.masks[dst]);
                    let (a, b) = (&r.masks[a][..len], &r.masks[b][..len]);
                    mask2(a, b, &mut d[..len], |x, y| x & y);
                    r.masks[dst] = d;
                }
                Instr::Or { a, b, dst } => {
                    let mut d = std::mem::take(&mut r.masks[dst]);
                    let (a, b) = (&r.masks[a][..len], &r.masks[b][..len]);
                    mask2(a, b, &mut d[..len], |x, y| x | y);
                    r.masks[dst] = d;
                }
                Instr::Not { src, dst } => {
                    let mut d = std::mem::take(&mut r.masks[dst]);
                    for (o, &x) in d[..len].iter_mut().zip(&r.masks[src][..len]) {
                        *o = 1 - x;
                    }
                    r.masks[dst] = d;
                }
                Instr::Load { col, dst } => {
                    let out = &mut r.vals[dst][..len];
                    with_lane!(self.lane(col, start, len), |d| widen_into(d, out));
                }
                Instr::Arith { op, a, b, dst } => {
                    // The destination is taken out of the file while its
                    // sources are borrowed from it; no allocation happens.
                    let mut d = std::mem::take(&mut r.vals[dst]);
                    let (a, b, out) = (
                        operand(&r.vals, a, len),
                        operand(&r.vals, b, len),
                        &mut d[..len],
                    );
                    match op {
                        ArithOp::Add => map2(a, b, out, i64::wrapping_add),
                        ArithOp::Sub => map2(a, b, out, i64::wrapping_sub),
                        ArithOp::Mul => map2(a, b, out, i64::wrapping_mul),
                        ArithOp::Div => map2(a, b, out, i64::wrapping_div),
                    }
                    r.vals[dst] = d;
                }
                Instr::Blend {
                    mask,
                    then,
                    otherwise,
                    dst,
                } => {
                    let mut d = std::mem::take(&mut r.vals[dst]);
                    let (t, o) = (
                        operand(&r.vals, then, len),
                        operand(&r.vals, otherwise, len),
                    );
                    // 0/1 blend: neither product nor their sum can overflow.
                    let blend = |m: u8, t: i64, o: i64| t * m as i64 + o * (1 - m as i64);
                    let (out, m) = (&mut d[..len], &r.masks[mask][..len]);
                    match (t, o) {
                        (L::S(t), L::S(o)) => {
                            for (((out, &m), &t), &o) in out.iter_mut().zip(m).zip(t).zip(o) {
                                *out = blend(m, t, o);
                            }
                        }
                        (L::S(t), L::C(o)) => {
                            for ((out, &m), &t) in out.iter_mut().zip(m).zip(t) {
                                *out = blend(m, t, o);
                            }
                        }
                        (L::C(t), L::S(o)) => {
                            for ((out, &m), &o) in out.iter_mut().zip(m).zip(o) {
                                *out = blend(m, t, o);
                            }
                        }
                        (L::C(t), L::C(o)) => {
                            for (out, &m) in out.iter_mut().zip(m) {
                                *out = blend(m, t, o);
                            }
                        }
                    }
                    r.vals[dst] = d;
                }
                Instr::MaskToVal { mask, dst } => {
                    widen_into(&r.masks[mask][..len], &mut r.vals[dst][..len]);
                }
            }
        }
    }

    /// The filter mask of the tile just run.
    pub(crate) fn filter<'r>(&self, r: &'r Regs, len: usize) -> &'r [u8] {
        &r.masks[self.prog.filter][..len]
    }

    /// The lanes a masked scalar stage folds the tile just run under: the
    /// filter mask, or every lane — a stage with no filter reads no mask,
    /// and a membership alone keeps a lane (a run's choice, like the width
    /// its sums take).
    pub(crate) fn masked_lanes<'r>(&self, r: &'r Regs, len: usize) -> Lanes<'r> {
        match self.prog.has_filter {
            true => Lanes::Masked(self.filter(r, len)),
            false => Lanes::Every,
        }
    }

    /// Compact the filter mask of the tile just run into `r.idx` as
    /// tile-local offsets ([`selvec::fill_adaptive`]); returns the count.
    pub(crate) fn select(&self, r: &mut Regs, len: usize) -> usize {
        let cmp = &r.masks[self.prog.filter][..len];
        selvec::fill_adaptive(cmp, 0, &mut r.idx, &mut r.sparse)
    }

    /// The group key of rows `[start, start + len)` at native width.
    pub(crate) fn key_lane(&self, start: usize, len: usize) -> Lane<'_> {
        let key = self
            .prog
            .key
            .expect("a zero-edge grouped stage lowers its key");
        self.lane(key, start, len)
    }

    /// Key masking (§ III-B): `r.tmp = keys` with the lanes the filter
    /// rejected sent to the throwaway key.
    pub(crate) fn mask_keys(&self, r: &mut Regs, keys: Lane<'_>) {
        let cmp = &r.masks[self.prog.filter];
        with_lane!(keys, |k| groupby::mask_keys(
            k,
            &cmp[..k.len()],
            &mut r.tmp[..k.len()]
        ));
    }

    /// The filter mask of the tile just run, for a build that folds its
    /// chain edges' bits into it (the next run rewrites it).
    pub(crate) fn filter_mut<'r>(&self, r: &'r mut Regs, len: usize) -> &'r mut [u8] {
        &mut r.masks[self.prog.filter][..len]
    }

    fn src<'r>(&'r self, r: &'r Regs, s: Src, start: usize, len: usize) -> Lane<'r> {
        match s {
            Src::Col(c) => self.lane(c, start, len),
            Src::Reg(i) => Lane::I64(&r.vals[i][..len]),
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar-aggregation sinks
// ---------------------------------------------------------------------------

/// The terminal fold of one scalar aggregate, selected once per query from
/// the aggregate shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sink {
    /// `count(*)`: the tile's kept lanes.
    Count,
    /// `sum(a)` or `sum(a OP b)` over the operands at native width.
    Sum(FusedSum),
    /// `min` / `max` over a value register.
    Min(usize),
    Max(usize),
}

/// The sinks of a scalar aggregate list, one per aggregate, and how a run
/// folds them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScalarSinks {
    pub(crate) sinks: Arc<[Sink]>,
    /// The certificate's verdict on the sums: `I32Tile` runs the masked
    /// sums of a stage with no edge or over a byte map in `i32` lanes;
    /// every other sum is one wrapping `i64` add.
    pub(crate) proof: OverflowProof,
    /// Whether the run counts the lanes it keeps (its metrics do).
    pub(crate) counted: bool,
}

/// Select the sinks for a scalar aggregate list.
pub(crate) fn scalar_sinks(prog: &TileProgram, aggs: &[AggSpec]) -> Vec<Sink> {
    let sink = |(i, a): (usize, &AggSpec)| match (a.func, prog.output(i)) {
        (AggFunc::Count, _) => Sink::Count,
        (AggFunc::Min, _) => Sink::Min(prog.output_reg(i)),
        (AggFunc::Max, _) => Sink::Max(prog.output_reg(i)),
        (AggFunc::Sum, Some(Output::Op(sum))) => Sink::Sum(sum),
        (AggFunc::Sum, other) => unreachable!("scalar sums lower to fused outputs, got {other:?}"),
    };
    aggs.iter().enumerate().map(sink).collect()
}

/// Run `$body` with `$i` bound to the kernels' input for `$sum` over
/// `$tile`: the one-slice input of `sum(a)`, or the fused input of `sum(a
/// OP b)`, its operands at native width.
macro_rules! with_fused {
    ($bound:expr, $r:expr, $sum:expr, $tile:expr, |$i:ident| $body:expr) => {{
        let (sum, (start, len)): (FusedSum, (usize, usize)) = ($sum, $tile);
        match sum {
            FusedSum::One(a) => with_lane!($bound.src($r, a, start, len), |a| {
                let $i = [a];
                $body
            }),
            FusedSum::Op(op, a, b) => {
                let (a, b) = ($bound.src($r, a, start, len), $bound.src($r, b, start, len));
                with_lane!(a, |a| with_lane!(b, |b| match op {
                    FusedOp::Mul => {
                        let $i = groupby::Fused::<_, _, Mul>(a, b, PhantomData);
                        $body
                    }
                    FusedOp::Div => {
                        let $i = groupby::Fused::<_, _, Div>(a, b, PhantomData);
                        $body
                    }
                }))
            }
        }
    }};
}

/// Which lanes of a masked probe belong to the result besides those its
/// filter keeps: those whose bit is set in its one edge's bitmap at the
/// lane's FK position (§ III-D), or whose byte is set in its byte map.
/// Without a filter the lanes are `Lanes::Every` and the membership alone
/// keeps a lane.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Member<'a> {
    Bits(&'a [u32], Bits<'a>),
    Bytes(&'a [u32], &'a [u8]),
}

impl Member<'_> {
    /// The plan's name for `member`.
    fn of(member: Option<Member<'_>>) -> Membership {
        match member {
            None => Membership::None,
            Some(Member::Bits(..)) => Membership::Bitmap,
            Some(Member::Bytes(..)) => Membership::Bytes,
        }
    }
}

/// The `agg::fold` instance `member`, `mode` and `count` name. Without a
/// membership the caller counts the mask, the selection or the tile itself, and
/// `count` is ignored; over a bitmap the sums are `i64` (see
/// `physical::fold_mode`).
fn fold<I: agg::Fold>(
    lanes: Lanes<'_>,
    member: Option<Member<'_>>,
    inputs: &I,
    (mode, count): (OverflowProof, bool),
) -> agg::Folded {
    use agg::{I32Tile, Wrapping};
    use OverflowProof::{I32Tile as I32, I64};
    match (member, mode, count) {
        (None, I64, _) => instance::<_, _, Wrapping, false>(lanes, (), inputs),
        (None, I32, _) => instance::<_, _, I32Tile, false>(lanes, (), inputs),
        (Some(Member::Bits(fk, b)), _, false) => {
            instance::<_, _, Wrapping, false>(lanes, (fk, b), inputs)
        }
        (Some(Member::Bits(fk, b)), _, true) => {
            instance::<_, _, Wrapping, true>(lanes, (fk, b), inputs)
        }
        (Some(Member::Bytes(fk, b)), I64, false) => {
            instance::<_, _, Wrapping, false>(lanes, (fk, b), inputs)
        }
        (Some(Member::Bytes(fk, b)), I64, true) => {
            instance::<_, _, Wrapping, true>(lanes, (fk, b), inputs)
        }
        (Some(Member::Bytes(fk, b)), I32, false) => {
            instance::<_, _, I32Tile, false>(lanes, (fk, b), inputs)
        }
        (Some(Member::Bytes(fk, b)), I32, true) => {
            instance::<_, _, I32Tile, true>(lanes, (fk, b), inputs)
        }
    }
}

/// One `agg::fold` instance as a function of its own, called once per tile
/// and slot. Inlined into `accumulate` beside every other instance, the
/// masked probe ran about 20 % slower (`perf`'s `hash_micro` `q4_s50_s50`
/// and TPC-H Q4 engine times over ten pairs).
#[inline(never)]
fn instance<I: agg::Fold, R: agg::Member, M: agg::Mode, const COUNT: bool>(
    lanes: Lanes<'_>,
    member: R,
    inputs: &I,
) -> agg::Folded {
    agg::fold::<I, R, M, COUNT>(lanes, member, inputs)
}

impl BoundProgram {
    /// Fold `lanes` of the tile just run — kept only where `member` keeps
    /// them too — into `acc`, one slot per sink, each through the
    /// `agg::fold` instance its sink, the proof and its operands' native
    /// widths name: the one dispatch of a scalar stage, once per tile and
    /// slot, never per lane. Each slot's running sum is one wrapping add.
    ///
    /// Returns the lanes kept — with a membership, counted by the first
    /// pass that folds if the run or a `count(*)` asks, else the lanes
    /// folded.
    pub(crate) fn accumulate(
        &self,
        r: &Regs,
        sinks: &ScalarSinks,
        (lanes, member): (Lanes<'_>, Option<Member<'_>>),
        tile: (usize, usize),
        acc: &mut [i64],
    ) -> usize {
        let masked = !matches!(lanes, Lanes::Selected(_));
        let mode = physical::fold_mode(sinks.proof, masked, Member::of(member));
        let mut kept = match (lanes, member) {
            (Lanes::Masked(cmp), None) => Some(predicate::mask_count(cmp)),
            (Lanes::Selected(idx), None) => Some(idx.len()),
            (Lanes::Every, None) => Some(tile.1),
            _ => None,
        };
        let count = sinks.counted || sinks.sinks.contains(&Sink::Count);
        for (slot, sink) in acc.iter_mut().zip(sinks.sinks.iter()) {
            let vals = |reg: usize| &r.vals[reg][..tile.1];
            let counts = count && kept.is_none();
            let f = match *sink {
                Sink::Count => continue,
                Sink::Sum(sum) => with_fused!(self, r, sum, tile, |inputs| {
                    fold(lanes, member, &inputs, (mode, counts))
                }),
                Sink::Min(reg) => {
                    let v = fold(
                        lanes,
                        member,
                        &agg::Extreme::<false>(vals(reg)),
                        (mode, false),
                    );
                    *slot = (*slot).min(v.value);
                    continue;
                }
                Sink::Max(reg) => {
                    let v = fold(
                        lanes,
                        member,
                        &agg::Extreme::<true>(vals(reg)),
                        (mode, false),
                    );
                    *slot = (*slot).max(v.value);
                    continue;
                }
            };
            if counts {
                kept = Some(f.count);
            }
            *slot = slot.wrapping_add(f.value);
        }
        let kept = match kept {
            Some(k) => k,
            None if count => fold(lanes, member, &(), (mode, true)).count,
            None => tile.1,
        };
        for (slot, _) in acc
            .iter_mut()
            .zip(sinks.sinks.iter())
            .filter(|s| *s.1 == Sink::Count)
        {
            *slot = slot.wrapping_add(kept as i64);
        }
        kept
    }
}

// ---------------------------------------------------------------------------
// Grouped sinks
// ---------------------------------------------------------------------------

/// The widest sum / count list one unrolled pass of the upsert family is
/// compiled for; a longer list runs as several passes of the same loop.
pub(crate) const GROUP_ARITY: usize = 4;

/// The inputs of a grouped stage's `groupby::upsert`, selected once per
/// query from the aggregate shape ([`TileProgram::lower_agg`] lowered them
/// for it); the lanes are the strategy's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GroupSink {
    /// The stage's one `sum(a)` or `sum(a OP b)`, key and operands read as
    /// column slices at native width (a sum of any other expression reads
    /// its register).
    Fused(FusedSum),
    /// Any other list, each aggregate's input its value register (a
    /// count's a tile of ones): sums and counts in unrolled passes of
    /// [`GROUP_ARITY`], a list with `min` / `max` in one pass that folds.
    List(Vec<Slot>),
}

impl GroupSink {
    /// The upsert instance as `EXPLAIN` names it: the lanes' kernel (the
    /// hybrid group-by and the groupjoin both `gather`), and the slots of
    /// each pass.
    pub(crate) fn name(&self, kernel: &str) -> String {
        match self {
            GroupSink::Fused(_) => format!("{kernel}<1>"),
            GroupSink::List(list) if folds(list) => format!("{kernel}<fold {}>", list.len()),
            GroupSink::List(list) => {
                let passes = list.chunks(GROUP_ARITY).map(|p| p.len().to_string());
                format!("{kernel}<{}>", passes.collect::<Vec<_>>().join("+"))
            }
        }
    }
}

/// Whether a list has a `min` / `max`, and so runs as one folding pass.
pub(crate) fn folds(list: &[Slot]) -> bool {
    list.iter().any(|&(op, _)| op != MergeOp::Add)
}

/// Select the sink of a grouped stage over `aggs`.
pub(crate) fn group_sink(prog: &TileProgram, aggs: &[AggSpec]) -> GroupSink {
    if let ([_], Some(Output::Op(sum))) = (aggs, prog.output(0)) {
        return GroupSink::Fused(sum);
    }
    let slot = |(i, a): (usize, &AggSpec)| match a.func {
        AggFunc::Sum => (MergeOp::Add, Some(prog.output_reg(i))),
        AggFunc::Count => (MergeOp::Add, None),
        AggFunc::Min => (MergeOp::Min, Some(prog.output_reg(i))),
        AggFunc::Max => (MergeOp::Max, Some(prog.output_reg(i))),
    };
    GroupSink::List(aggs.iter().enumerate().map(slot).collect())
}

impl BoundProgram {
    /// Upsert `lanes` of the tile just run into `ht` through the
    /// `groupby::upsert` instance that `sink` and the native widths of
    /// `keys` and the operands name — a sum / count list in
    /// passes of [`GROUP_ARITY`] slots. The one dispatch of a grouped
    /// stage: once per tile (per pass), never per lane.
    pub(crate) fn upsert<T: GroupTable>(
        &self,
        r: &Regs,
        sink: &GroupSink,
        keys: Lane<'_>,
        lanes: Lanes<'_>,
        tile: (usize, usize),
        ht: &mut T,
    ) {
        with_lane!(keys, |keys| match sink {
            GroupSink::Fused(sum) => with_fused!(self, r, *sum, tile, |inputs| {
                groupby::upsert(keys, lanes, &inputs, 0, ht)
            }),
            GroupSink::List(list) if folds(list) => {
                let inputs = Folds(list, &r.vals);
                groupby::upsert(keys, lanes, &inputs, 0, ht)
            }
            GroupSink::List(list) => {
                for (p, pass) in list.chunks(GROUP_ARITY).enumerate() {
                    let (at, len) = (p * GROUP_ARITY, tile.1);
                    match pass.len() {
                        1 => groupby::upsert(keys, lanes, &inputs::<1>(r, pass, len), at, ht),
                        2 => groupby::upsert(keys, lanes, &inputs::<2>(r, pass, len), at, ht),
                        3 => groupby::upsert(keys, lanes, &inputs::<3>(r, pass, len), at, ht),
                        4 => groupby::upsert(keys, lanes, &inputs::<4>(r, pass, len), at, ht),
                        n => unreachable!("a pass of {n} inputs"),
                    }
                }
            }
        })
    }
}

/// `count(*)` as an input like any other: a tile of ones.
static ONES: [i64; TILE] = [1; TILE];

/// The inputs of one pass of a sum / count list over the `len` lanes of the
/// tile just run.
fn inputs<'r, const N: usize>(r: &'r Regs, pass: &[Slot], len: usize) -> [&'r [i64]; N] {
    std::array::from_fn(|i| pass[i].1.map_or(&ONES[..len], |reg| &r.vals[reg][..len]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use swole_bitmap::PositionalBitmap;
    use swole_storage::DictColumn;

    thread_local! {
        /// Dictionary match tables built by [`TileProgram::bind`] on this
        /// thread — the regression counter for "once per query, not per
        /// tile".
        pub(super) static MATCH_TABLES_BUILT: Cell<usize> = const { Cell::new(0) };
    }

    const ROWS: usize = 2 * TILE + 452;
    const WORDS: [&str; 5] = ["PROMO A", "STD", "PROMO B", "ECO", "X"];
    /// `(start, len)` tiles: aligned, ragged last, unaligned, single-row.
    const TILES: [(usize, usize); 8] = [
        (0, TILE),
        (TILE, TILE),
        (2 * TILE, 452),
        (7, 1),
        (1000, 100),
        (ROWS - 1, 1),
        (13, TILE),
        (0, 1),
    ];

    /// One column of every `ColumnData` variant, plus a never-zero divisor.
    fn table(seed: u64) -> Arc<Table> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let words: Vec<&str> = (0..ROWS).map(|_| WORDS[rng.gen_range(0..5usize)]).collect();
        Arc::new(
            Table::new("t")
                .with_column(
                    "c8",
                    ColumnData::I8((0..ROWS).map(|_| rng.gen_range(-100i8..100)).collect()),
                )
                .with_column(
                    "c16",
                    ColumnData::I16((0..ROWS).map(|_| rng.gen_range(-3000i16..3000)).collect()),
                )
                .with_column(
                    "c32",
                    ColumnData::I32(
                        (0..ROWS)
                            .map(|_| rng.gen_range(-70_000i32..70_000))
                            .collect(),
                    ),
                )
                .with_column(
                    "c64",
                    ColumnData::I64(
                        (0..ROWS)
                            .map(|_| rng.gen_range(-(1i64 << 40)..1 << 40))
                            .collect(),
                    ),
                )
                .with_column(
                    "u",
                    ColumnData::U32((0..ROWS).map(|_| rng.gen_range(0u32..5000)).collect()),
                )
                .with_column("d", ColumnData::Dict(DictColumn::encode(&words)))
                .with_column(
                    "nz",
                    ColumnData::I32((0..ROWS).map(|_| rng.gen_range(1i32..50)).collect()),
                ),
        )
    }

    const COLS: [&str; 7] = ["c8", "c16", "c32", "c64", "u", "d", "nz"];
    const CMPS: [CmpOp; 6] = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];

    fn bx(e: Expr) -> Box<Expr> {
        Box::new(e)
    }

    fn lit(rng: &mut SmallRng) -> Expr {
        // Small values hit the native-width compares; the large ones do not
        // fit the narrow columns and take the widened path.
        Expr::Lit(match rng.gen_range(0..6u32) {
            0 => rng.gen_range(-5i64..5),
            1 => rng.gen_range(-100i64..100),
            2 => rng.gen_range(-3000i64..3000),
            3 => rng.gen_range(-70_000i64..70_000),
            4 => 1 << 40,
            _ => -129,
        })
    }

    fn col(rng: &mut SmallRng) -> Expr {
        Expr::col(COLS[rng.gen_range(0..COLS.len())])
    }

    /// A divisor that is non-zero in every row (CASE evaluates both
    /// branches, so a masked-out zero divisor would still panic).
    fn divisor(rng: &mut SmallRng) -> Expr {
        if rng.gen_range(0..2u32) == 0 {
            Expr::col("nz")
        } else {
            Expr::Lit([-7, -1, 1, 3, 1000][rng.gen_range(0..5usize)])
        }
    }

    fn value(rng: &mut SmallRng, depth: u32) -> Expr {
        if depth == 0 {
            return if rng.gen_range(0..3u32) == 0 {
                lit(rng)
            } else {
                col(rng)
            };
        }
        let d = depth - 1;
        match rng.gen_range(0..7u32) {
            0 => Expr::Add(bx(value(rng, d)), bx(value(rng, d))),
            1 => Expr::Sub(bx(value(rng, d)), bx(value(rng, d))),
            2 => Expr::Mul(bx(value(rng, d)), bx(value(rng, d))),
            3 => Expr::Div(bx(value(rng, d)), bx(divisor(rng))),
            4 => Expr::Case {
                when: bx(boolean(rng, d)),
                then: bx(value(rng, d)),
                otherwise: bx(value(rng, d)),
            },
            5 => boolean(rng, d),
            _ => value(rng, 0),
        }
    }

    fn boolean(rng: &mut SmallRng, depth: u32) -> Expr {
        let op = CMPS[rng.gen_range(0..6usize)];
        if depth == 0 {
            return match rng.gen_range(0..6u32) {
                0 => Expr::Cmp(op, bx(col(rng)), bx(lit(rng))),
                1 => Expr::Cmp(op, bx(lit(rng)), bx(col(rng))),
                2 => Expr::Cmp(op, bx(lit(rng)), bx(lit(rng))),
                3 => Expr::Like {
                    col: "d".into(),
                    pattern: ["PROMO%", "%", "_TD", "E%O", "nothing"][rng.gen_range(0..5usize)]
                        .into(),
                },
                4 => Expr::InList {
                    col: "d".into(),
                    values: WORDS[..rng.gen_range(0..4usize)]
                        .iter()
                        .map(|w| w.to_string())
                        .collect(),
                },
                _ => Expr::Cmp(op, bx(col(rng)), bx(col(rng))),
            };
        }
        let d = depth - 1;
        match rng.gen_range(0..6u32) {
            0 => Expr::And(bx(boolean(rng, d)), bx(boolean(rng, d))),
            1 => Expr::Or(bx(boolean(rng, d)), bx(boolean(rng, d))),
            2 => Expr::Not(bx(boolean(rng, d))),
            3 => Expr::Cmp(op, bx(value(rng, d)), bx(value(rng, d))),
            // A value in boolean context: nonzero is true.
            4 => value(rng, d),
            _ => boolean(rng, 0),
        }
    }

    #[test]
    fn program_matches_eval_row_on_random_trees() {
        let t = table(7);
        for seed in 0..400u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let depth = rng.gen_range(0..4u32);
            let filter = boolean(&mut rng, depth);
            let values: Vec<Expr> = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let depth = rng.gen_range(0..4u32);
                    value(&mut rng, depth)
                })
                .collect();
            let wants: Vec<Want<'_>> = values.iter().map(Want::Reg).collect();
            let prog = Arc::new(TileProgram::lower(&t, Some(&filter), &wants).expect("lowers"));
            let bound = prog.bind(&t).expect("binds");
            let mut regs = Regs::new(&prog);
            let want_filter = expr::values(&filter, &t);
            let want_values: Vec<_> = values.iter().map(|e| expr::values(e, &t)).collect();
            // One register file across all tiles, as a worker runs it.
            for &(start, len) in &TILES {
                bound.run(&mut regs, start, len);
                for (j, &m) in bound.filter(&regs, len).iter().enumerate() {
                    let want = want_filter[start + j] != 0;
                    assert_eq!(
                        m,
                        want as u8,
                        "seed {seed} filter {filter:?} row {}",
                        start + j
                    );
                }
                for (i, e) in values.iter().enumerate() {
                    let got = &regs.val(prog.output_reg(i))[..len];
                    for (j, &v) in got.iter().enumerate() {
                        assert_eq!(
                            v,
                            want_values[i][start + j],
                            "seed {seed} value {e:?} row {}",
                            start + j
                        );
                    }
                }
            }
        }
    }

    /// The sinks of `aggs` under `proof`, on a run that counts nothing.
    fn scalar(prog: &TileProgram, aggs: &[AggSpec], proof: OverflowProof) -> ScalarSinks {
        let sinks = scalar_sinks(prog, aggs);
        let counted = false;
        ScalarSinks {
            sinks: sinks.into(),
            proof,
            counted,
        }
    }

    /// A stage's filter: every fourth seed has none.
    fn maybe_filter(rng: &mut SmallRng, seed: u64) -> Option<Expr> {
        let depth = rng.gen_range(0..3u32);
        let filter = boolean(rng, depth);
        (!seed.is_multiple_of(4)).then_some(filter)
    }

    /// A sum's input: fusable `a OP b` shapes, and one operand — a column,
    /// `a + b`, a `CASE` or any other expression.
    fn sum_input(rng: &mut SmallRng) -> Expr {
        match rng.gen_range(0..8u32) {
            0 => Expr::Mul(bx(col(rng)), bx(col(rng))),
            1 => Expr::Div(bx(col(rng)), bx(divisor(rng))),
            2 => Expr::Mul(bx(lit(rng)), bx(col(rng))),
            3 => col(rng),
            4 => Expr::Mul(bx(Expr::col("c8")), bx(Expr::col("c8"))),
            5 => Expr::Add(bx(col(rng)), bx(col(rng))),
            6 => Expr::Case {
                when: bx(boolean(rng, 0)),
                then: bx(col(rng)),
                otherwise: bx(value(rng, 1)),
            },
            _ => value(rng, 2),
        }
    }

    /// The rows `filter` keeps (all of them without one).
    fn kept_rows(filter: Option<&Expr>, t: &Table) -> Vec<i64> {
        filter.map_or(vec![1; t.len()], |f| expr::values(f, t))
    }

    /// The sums the scalar sinks produce, masked and gathered, against a
    /// row-at-a-time fold of the block evaluator's values, with a filter
    /// and without.
    #[test]
    fn scalar_sinks_match_eval_row() {
        let t = table(11);
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let filter = maybe_filter(&mut rng, seed);
            let inputs: Vec<Expr> = (0..3).map(|_| sum_input(&mut rng)).collect();
            let mut aggs: Vec<AggSpec> = inputs
                .iter()
                .enumerate()
                .map(|(i, e)| AggSpec::sum(e.clone(), format!("s{i}")))
                .collect();
            aggs.push(AggSpec::count("n"));
            aggs.push(AggSpec::min(inputs[0].clone(), "lo"));
            aggs.push(AggSpec::max(inputs[1].clone(), "hi"));
            let keep = kept_rows(filter.as_ref(), &t);
            let qualifying: Vec<usize> = (0..ROWS).filter(|&r| keep[r] != 0).collect();
            let want: Vec<i64> = aggs
                .iter()
                .map(|a| {
                    let e = expr::values(&a.expr, &t);
                    let vals = qualifying.iter().map(|&r| e[r]);
                    match a.func {
                        AggFunc::Sum => vals.fold(0i64, i64::wrapping_add),
                        AggFunc::Count => qualifying.len() as i64,
                        AggFunc::Min => vals.min().unwrap_or(i64::MAX),
                        AggFunc::Max => vals.max().unwrap_or(i64::MIN),
                    }
                })
                .collect();
            let identities = [0, 0, 0, 0, i64::MAX, i64::MIN];
            let prog =
                Arc::new(TileProgram::lower_agg(&t, filter.as_ref(), None, &aggs, false).unwrap());
            let bound = prog.bind(&t).unwrap();
            // Gather: every aggregate, min/max included.
            let sinks = scalar(&prog, &aggs, OverflowProof::I64);
            let mut regs = Regs::new(&prog);
            let mut acc = identities.to_vec();
            for tile in swole_kernels::tiles(ROWS) {
                bound.run(&mut regs, tile.0, tile.1);
                let k = bound.select(&mut regs, tile.1);
                let lanes = (Lanes::Selected(&regs.idx[..k]), None);
                bound.accumulate(&regs, &sinks, lanes, tile, &mut acc);
            }
            assert_eq!(acc, want, "gather seed {seed} {aggs:?}");
            // Masked: sums and counts only (the planner's invariant).
            let sinks = scalar(&prog, &aggs[..4], OverflowProof::I64);
            let mut acc = vec![0i64; 4];
            let mut matched = 0;
            for tile in swole_kernels::tiles(ROWS) {
                bound.run(&mut regs, tile.0, tile.1);
                let lanes = (bound.masked_lanes(&regs, tile.1), None);
                matched += bound.accumulate(&regs, &sinks, lanes, tile, &mut acc);
            }
            assert_eq!(acc, want[..4], "masked seed {seed} {aggs:?}");
            assert_eq!(matched, qualifying.len());
        }
    }

    /// Under an `i32` tile proof the masked sinks — value masking, access
    /// merging among it — sum what the `i64` ones do on inputs that fit:
    /// `i8` / `i16` / `i32` operands, a never-zero divisor and an input read
    /// from an `i64` register.
    #[test]
    fn i32_tile_sinks_match_the_i64_ones() {
        let t = table(13);
        let filter = Expr::col("c8").cmp(CmpOp::Lt, Expr::lit(20));
        let (c8, c16, nz) = (Expr::col("c8"), Expr::col("c16"), Expr::col("nz"));
        let aggs = [
            AggSpec::sum(c8.clone().mul(c16.clone()), "merged"),
            AggSpec::sum(c8.clone().mul(c8.clone()), "square"),
            AggSpec::sum(c16.clone().mul(nz.clone()), "product"),
            AggSpec::sum(Expr::Div(bx(c16.clone()), bx(nz)), "quotient"),
            AggSpec::sum(Expr::Add(bx(c8), bx(c16)), "register"),
            AggSpec::count("n"),
        ];
        let prog = Arc::new(TileProgram::lower_agg(&t, Some(&filter), None, &aggs, false).unwrap());
        let bound = prog.bind(&t).unwrap();
        let run = |proof| {
            let sinks = scalar(&prog, &aggs, proof);
            let (mut regs, mut acc) = (Regs::new(&prog), vec![0; 6]);
            for tile in swole_kernels::tiles(ROWS) {
                bound.run(&mut regs, tile.0, tile.1);
                let lanes = (Lanes::Masked(bound.filter(&regs, tile.1)), None);
                bound.accumulate(&regs, &sinks, lanes, tile, &mut acc);
            }
            acc
        };
        assert_eq!(run(OverflowProof::I32Tile), run(OverflowProof::I64));
    }

    /// Run `sink` over every tile of the table into `ht` behind the lanes
    /// `which` picks — 0 the hybrid gather, 1 value masking, 2 key masking,
    /// 3 eager aggregation by `fk` — and return the valid groups.
    fn upsert_groups<T: GroupTable>(
        bound: &BoundProgram,
        sink: &GroupSink,
        fk: &[u32],
        which: usize,
        mut ht: T,
    ) -> BTreeMap<i64, Vec<i64>> {
        let mut regs = Regs::new(bound.program());
        for tile in swole_kernels::tiles(ROWS) {
            let (start, len) = tile;
            bound.run(&mut regs, start, len);
            let keys = bound.key_lane(start, len);
            let mut go = |regs: &Regs, keys, lanes| {
                bound.upsert(regs, sink, keys, lanes, tile, &mut ht);
            };
            match which {
                0 => {
                    let k = bound.select(&mut regs, len);
                    go(&regs, keys, Lanes::Selected(&regs.idx[..k]));
                }
                1 => go(&regs, keys, Lanes::Masked(bound.filter(&regs, len))),
                2 => {
                    bound.mask_keys(&mut regs, keys);
                    go(&regs, Lane::I64(&regs.tmp[..len]), Lanes::Every);
                }
                _ => go(&regs, Lane::U32(&fk[start..start + len]), Lanes::Every),
            }
        }
        let valid = ht.iter().filter(|&(_, _, valid)| valid);
        valid.map(|(k, s, _)| (k, s.to_vec())).collect()
    }

    /// The fused-input upsert — behind every front end, over both table
    /// representations and keys of every width — against a row-at-a-time
    /// fold of the block evaluator's values, and the fused masked probe,
    /// over a bitmap and a byte map, against the three-pass path it
    /// replaces.
    #[test]
    fn grouped_and_probe_sinks_match_eval_row() {
        use swole_ht::{AggTable, DenseAggTable};
        let t = table(23);
        // FK positions for the eager sink and the probe: `u` is `0..5000`.
        let fk = t.column("u").and_then(|c| c.as_u32()).expect("u is u32");
        let bitmap = PositionalBitmap::from_selection(
            5000,
            &(0..5000u32).filter(|p| p % 3 != 0).collect::<Vec<_>>(),
        );
        let bytes: Vec<u8> = (0..5000).map(|p| bitmap.get_bit(p) as u8).collect();
        for seed in 0..60u64 {
            let mut rng = SmallRng::seed_from_u64(4000 + seed);
            let filter = maybe_filter(&mut rng, seed);
            let input = sum_input(&mut rng);
            let aggs = [AggSpec::sum(input.clone(), "s")];
            let input_of = expr::values(&input, &t);
            let key = ["c8", "c16", "c32", "u", "d"][rng.gen_range(0..5usize)];
            let prog = Arc::new(
                TileProgram::lower_agg(&t, filter.as_ref(), Some(key), &aggs, true).unwrap(),
            );
            let sink = group_sink(&prog, &aggs);
            assert!(matches!(sink, GroupSink::Fused(_)), "one sum is fused");
            let bound = prog.bind(&t).unwrap();
            let key_col = expr::values(&Expr::col(key), &t);
            let key_of = |r: usize| key_col[r];
            let (lo, hi) = (0..ROWS).fold((i64::MAX, i64::MIN), |(lo, hi), r| {
                (lo.min(key_of(r)), hi.max(key_of(r)))
            });
            let fold = |rows: &mut dyn Iterator<Item = usize>, key_of: &dyn Fn(usize) -> i64| {
                let mut want = BTreeMap::new();
                for r in rows {
                    let e = want.entry(key_of(r)).or_insert(vec![0i64]);
                    e[0] = e[0].wrapping_add(input_of[r]);
                }
                want
            };
            let keep = kept_rows(filter.as_ref(), &t);
            let qualifies = |r: &usize| keep[*r] != 0;
            let want = fold(&mut (0..ROWS).filter(qualifies), &key_of);
            let want_eager = fold(&mut (0..ROWS), &|r| fk[r] as i64);
            for which in 0..4 {
                let want = if which == 3 { &want_eager } else { &want };
                let dense = if which == 3 {
                    DenseAggTable::new(1, 0, 4999)
                } else {
                    DenseAggTable::new(1, lo, hi)
                };
                let label = format!("seed {seed} lanes {which} key {key} {input:?}");
                let hash = AggTable::with_capacity(1, 8);
                let run = |ht| upsert_groups(&bound, &sink, fk, which, ht);
                assert_eq!(&run(hash), want, "hash {label}");
                let dense = upsert_groups(&bound, &sink, fk, which, dense);
                assert_eq!(&dense, want, "dense {label}");
            }

            // The masked probe, the edge's bitmap or byte map the fold's
            // membership — a lone sum, a sum and a count, a count alone,
            // two sums; counted and not; over every lane when the stage has
            // no filter; the byte map in `i64` and in `i32` lanes (its two
            // passes) — against ANDing the membership into the mask and
            // folding that with no membership in the same mode.
            let Sink::Sum(sum) = scalar_sinks(&prog, &aggs)[0] else {
                panic!("a sum sinks a sum");
            };
            let lists = [
                vec![Sink::Sum(sum)],
                vec![Sink::Sum(sum), Sink::Count],
                vec![Sink::Count],
                vec![Sink::Sum(sum), Sink::Sum(sum)],
            ];
            let members = [
                ("bits", OverflowProof::I64),
                ("bytes", OverflowProof::I64),
                ("bytes", OverflowProof::I32Tile),
            ];
            for (member, proof) in members {
                let runs: Vec<ScalarSinks> = lists
                    .iter()
                    .flat_map(|l| [false, true].map(|counted| (l.clone(), counted)))
                    .map(|(sinks, counted)| ScalarSinks {
                        sinks: sinks.into(),
                        proof,
                        counted,
                    })
                    .collect();
                let mut probed: Vec<Vec<i64>> =
                    runs.iter().map(|s| vec![0; s.sinks.len()]).collect();
                let mut kept = vec![0usize; runs.len()];
                let folded = runs[2].clone(); // [sum, count], uncounted
                let (mut regs, mut want) = (Regs::new(&prog), vec![0i64; 2]);
                let mut mask = [0u8; TILE];
                for tile in swole_kernels::tiles(ROWS) {
                    let (start, len) = tile;
                    let fk = &fk[start..start + len];
                    bound.run(&mut regs, start, len);
                    let m = match member {
                        "bits" => Member::Bits(fk, bitmap.bits()),
                        _ => Member::Bytes(fk, &bytes),
                    };
                    for (i, sinks) in runs.iter().enumerate() {
                        let lanes = (bound.masked_lanes(&regs, len), Some(m));
                        let acc = &mut probed[i];
                        kept[i] += bound.accumulate(&regs, sinks, lanes, tile, acc);
                    }
                    for (j, (c, &p)) in mask[..len].iter_mut().zip(fk).enumerate() {
                        let filtered = !prog.has_filter() || bound.filter(&regs, len)[j] != 0;
                        *c = u8::from(filtered) & bitmap.get_bit(p as usize) as u8;
                    }
                    let lanes = (Lanes::Masked(&mask[..len]), None);
                    bound.accumulate(&regs, &folded, lanes, tile, &mut want);
                }
                let [sum, n] = want[..] else { unreachable!() };
                for (i, run) in runs.iter().enumerate() {
                    let label = format!("seed {seed} {member} probe {run:?} {input:?}");
                    let slot = |s: &Sink| if *s == Sink::Count { n } else { sum };
                    assert_eq!(
                        probed[i],
                        run.sinks.iter().map(slot).collect::<Vec<_>>(),
                        "{label}"
                    );
                    let counts = run.counted || run.sinks.contains(&Sink::Count);
                    let lanes = if counts { n as usize } else { ROWS };
                    assert_eq!(kept[i], lanes, "{label}");
                }
            }
        }
    }

    /// The list inputs — one to five aggregates: `sum` / `count` lists in
    /// unrolled passes, lists with `min` / `max` in one folding pass —
    /// behind every front end and both table representations, against a
    /// row-at-a-time fold of the block evaluator's values.
    #[test]
    fn compiled_lists_match_eval_row() {
        use swole_ht::{AggTable, DenseAggTable};
        let t = table(29);
        let fk = t.column("u").and_then(|c| c.as_u32()).expect("u is u32");
        type Groups = BTreeMap<i64, Vec<i64>>;
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(7000 + seed);
            let depth = rng.gen_range(0..3u32);
            let filter = boolean(&mut rng, depth);
            let n = rng.gen_range(1..=5usize);
            let aggs: Vec<AggSpec> = (0..n)
                .map(|i| match rng.gen_range(0..6u32) {
                    0 => AggSpec::count("n"),
                    4 => AggSpec::min(col(&mut rng), "lo"),
                    5 => AggSpec::max(Expr::Mul(bx(col(&mut rng)), bx(col(&mut rng))), "hi"),
                    // Repeats share a register.
                    1 => AggSpec::sum(Expr::col(["c32", "nz"][i % 2]), "s"),
                    2 => AggSpec::sum(col(&mut rng), "s"),
                    _ => AggSpec::sum(Expr::Mul(bx(col(&mut rng)), bx(col(&mut rng))), "s"),
                })
                .collect();
            let key = ["c8", "c16", "c32", "u", "d"][rng.gen_range(0..5usize)];
            let prog = Arc::new(
                TileProgram::lower_agg(&t, Some(&filter), Some(key), &aggs, true).unwrap(),
            );
            let sink = group_sink(&prog, &aggs);
            let GroupSink::List(list) = &sink else {
                assert!(
                    n == 1 && aggs[0].func == AggFunc::Sum,
                    "only one sum is no list"
                );
                continue;
            };
            let bound = prog.bind(&t).unwrap();
            let inputs: Vec<_> = aggs.iter().map(|a| expr::values(&a.expr, &t)).collect();
            let key_col = expr::values(&Expr::col(key), &t);
            let key_of = |r: usize| key_col[r];
            let (lo, hi) = (0..ROWS).fold((i64::MAX, i64::MIN), |(lo, hi), r| {
                (lo.min(key_of(r)), hi.max(key_of(r)))
            });
            let fold = |rows: &mut dyn Iterator<Item = usize>, key_of: &dyn Fn(usize) -> i64| {
                let mut want = Groups::new();
                for r in rows {
                    let fresh = !want.contains_key(&key_of(r));
                    let state = want.entry(key_of(r)).or_insert_with(|| vec![0; n]);
                    for ((s, a), e) in state.iter_mut().zip(&aggs).zip(&inputs) {
                        let v = e[r];
                        *s = match a.func {
                            AggFunc::Count => *s + 1,
                            AggFunc::Sum => s.wrapping_add(v),
                            _ if fresh => v,
                            AggFunc::Min => (*s).min(v),
                            AggFunc::Max => (*s).max(v),
                        };
                    }
                }
                want
            };
            let keep = expr::values(&filter, &t);
            let qualifies = |r: &usize| keep[*r] != 0;
            let want = fold(&mut (0..ROWS).filter(qualifies), &key_of);
            let want_eager = fold(&mut (0..ROWS), &|r| fk[r] as i64);
            for which in 0..4 {
                let want = if which == 3 { &want_eager } else { &want };
                let dense = match which {
                    3 => DenseAggTable::new(n, 0, 4999),
                    _ => DenseAggTable::new(n, lo, hi),
                };
                let label = format!("seed {seed} lanes {which} key {key} {list:?}");
                let hash = AggTable::with_capacity(n, 8);
                let got = upsert_groups(&bound, &sink, fk, which, hash);
                assert_eq!(&got, want, "hash {label}");
                let got = upsert_groups(&bound, &sink, fk, which, dense);
                assert_eq!(&got, want, "dense {label}");
            }
        }
    }

    #[test]
    fn dictionary_match_tables_are_built_once_per_bind() {
        let t = table(3);
        let filter = Expr::Like {
            col: "d".into(),
            pattern: "PROMO%".into(),
        }
        .or(Expr::InList {
            col: "d".into(),
            values: vec!["STD".into(), "X".into()],
        });
        let prog = Arc::new(TileProgram::lower(&t, Some(&filter), &[]).unwrap());
        MATCH_TABLES_BUILT.with(|c| c.set(0));
        let bound = prog.bind(&t).unwrap();
        let mut regs = Regs::new(&prog);
        let mut hits = 0;
        for (start, len) in swole_kernels::tiles(ROWS) {
            bound.run(&mut regs, start, len);
            hits += predicate::mask_count(bound.filter(&regs, len));
        }
        let keep = expr::values(&filter, &t);
        let want = keep.iter().filter(|&&k| k != 0).count();
        assert_eq!(hits, want);
        // Three tiles, two dictionary predicates: two tables, not six.
        assert_eq!(MATCH_TABLES_BUILT.with(Cell::get), 2);
    }

    #[test]
    fn common_subexpressions_and_loads_are_shared() {
        let t = table(1);
        // Both aggregates reference c32 * nz; the filter compares c8 twice.
        let shared = Expr::col("c32").mul(Expr::col("nz"));
        let a = Expr::Add(bx(shared.clone()), bx(Expr::Lit(1)));
        let b = Expr::Sub(bx(shared), bx(Expr::col("c32")));
        let lt = Expr::col("c8").cmp(CmpOp::Lt, Expr::lit(13));
        let filter = lt
            .clone()
            .and(lt.clone().or(Expr::col("c8").cmp(CmpOp::Gt, Expr::lit(50))));
        let prog = TileProgram::lower(&t, Some(&filter), &[Want::Reg(&a), Want::Reg(&b)]).unwrap();
        let count = |f: fn(&Instr) -> bool| prog.instrs.iter().filter(|i| f(i)).count();
        assert_eq!(
            count(|i| matches!(i, Instr::Load { .. })),
            2,
            "c32, nz once each"
        );
        assert_eq!(
            count(|i| matches!(
                i,
                Instr::Arith {
                    op: ArithOp::Mul,
                    ..
                }
            )),
            1
        );
        assert_eq!(
            count(|i| matches!(i, Instr::CmpColLit { .. })),
            2,
            "c8 < 13 once"
        );
    }

    #[test]
    fn literal_compares_stay_native_when_the_literal_fits() {
        let t = table(1);
        let lower = |e: &Expr| TileProgram::lower(&t, Some(e), &[]).unwrap();
        let native = lower(&Expr::col("c8").cmp(CmpOp::Lt, Expr::lit(50)));
        assert_eq!(
            native.instrs,
            vec![Instr::CmpColLit {
                op: CmpOp::Lt,
                col: 0,
                lit: 50,
                dst: 0
            }]
        );
        assert_eq!((native.n_masks, native.n_vals), (1, 0));
        // Literal on the left flips the operator.
        let flipped = lower(&Expr::lit(50).cmp(CmpOp::Lt, Expr::col("c8")));
        assert!(matches!(
            flipped.instrs[0],
            Instr::CmpColLit {
                op: CmpOp::Gt,
                lit: 50,
                ..
            }
        ));
        // 1000 does not fit an i8: load and compare widened.
        let widened = lower(&Expr::col("c8").cmp(CmpOp::Lt, Expr::lit(1000)));
        assert!(matches!(widened.instrs[0], Instr::Load { .. }));
        assert!(matches!(widened.instrs[1], Instr::CmpVal { .. }));
    }

    #[test]
    fn micro_q1_lowers_to_the_hand_coded_prepass_and_a_fused_sum() {
        let t = table(1);
        let filter = Expr::col("c8")
            .cmp(CmpOp::Lt, Expr::lit(50))
            .and(Expr::col("c16").cmp(CmpOp::Eq, Expr::lit(1)));
        let aggs = [AggSpec::sum(Expr::col("c32").mul(Expr::col("nz")), "s")];
        let prog = TileProgram::lower_agg(&t, Some(&filter), None, &aggs, false).unwrap();
        // cmp_lt, cmp_eq, and — and nothing for the sum.
        assert_eq!(prog.instrs.len(), 3);
        assert!(matches!(prog.instrs[2], Instr::And { .. }));
        assert_eq!((prog.n_masks, prog.n_vals), (3, 0));
        let sum = FusedSum::Op(FusedOp::Mul, Src::Col(2), Src::Col(3));
        assert_eq!(prog.output(0), Some(Output::Op(sum)));
        assert_eq!(scalar_sinks(&prog, &aggs), vec![Sink::Sum(sum)]);
    }

    /// A sum of one operand has no second: a column is read by the sink at
    /// native width and needs no register; `a + b` and a `CASE` are their
    /// register. No register of ones is loaded, filled or paid for.
    #[test]
    fn a_sum_of_one_operand_is_its_one_source() {
        let t = table(1);
        let (c16, nz) = (Expr::col("c16"), Expr::col("nz"));
        let case = Expr::Case {
            when: bx(Expr::col("c8").cmp(CmpOp::Lt, Expr::lit(0))),
            then: bx(c16.clone()),
            otherwise: bx(Expr::lit(7)),
        };
        let aggs = [
            AggSpec::sum(c16.clone(), "col"),
            AggSpec::sum(Expr::Add(bx(c16.clone()), bx(nz)), "add"),
            AggSpec::sum(case, "case"),
            AggSpec::count("n"),
        ];
        let prog = TileProgram::lower_agg(&t, None, None, &aggs, false).unwrap();
        let sinks = scalar_sinks(&prog, &aggs);
        let [Sink::Sum(FusedSum::One(Src::Col(0))), Sink::Sum(FusedSum::One(Src::Reg(add))), Sink::Sum(FusedSum::One(Src::Reg(case))), Sink::Count] =
            sinks[..]
        else {
            panic!("every sum is one source: {sinks:?}");
        };
        assert_ne!(add, case);
        assert!(prog.const_vals.is_empty(), "{:?}", prog.const_vals);
        // The Q4 shape: a bare column and no filter lowers to no value
        // register and no instruction at all — not even a copy of the
        // constant mask, which only a build rewrites.
        let one = TileProgram::lower_agg(&t, None, None, &aggs[..1], false).unwrap();
        assert_eq!((one.n_vals, one.instrs.len()), (0, 0));
        let regs = Regs::new(&one);
        assert!(regs.vals.is_empty());
    }

    /// The grouped twin: micro Q2 is the same three-instruction prepass, no
    /// `Load` or `Arith` — key and operands stay column slots for the upsert
    /// kernel to read at native width.
    #[test]
    fn micro_q2_lowers_to_the_hand_coded_prepass_and_a_kernel_sink() {
        let t = table(1);
        let filter = Expr::col("c8")
            .cmp(CmpOp::Lt, Expr::lit(50))
            .and(Expr::col("c16").cmp(CmpOp::Eq, Expr::lit(1)));
        let aggs = [AggSpec::sum(Expr::col("c32").mul(Expr::col("nz")), "s")];
        let prog = TileProgram::lower_agg(&t, Some(&filter), Some("u"), &aggs, true).unwrap();
        assert_eq!(prog.instrs.len(), 3);
        assert!(prog.instrs[..2]
            .iter()
            .all(|i| matches!(i, Instr::CmpColLit { .. })));
        assert!(matches!(prog.instrs[2], Instr::And { .. }));
        assert_eq!((prog.n_masks, prog.n_vals), (3, 0));
        assert_eq!(
            group_sink(&prog, &aggs),
            GroupSink::Fused(FusedSum::Op(FusedOp::Mul, Src::Col(2), Src::Col(3)))
        );
        assert_eq!(
            prog.key,
            Some(4),
            "the key is a column slot, not a register"
        );
        // A grouped join lowers no key at all: it reads the FK slice.
        let joined = TileProgram::lower_agg(&t, Some(&filter), None, &aggs, true).unwrap();
        assert_eq!(joined.key, None);
        assert_eq!(joined.instrs, prog.instrs);
    }

    #[test]
    fn sink_selection_follows_strategy_shape_and_proof() {
        let t = table(1);
        let filter = Expr::col("c8").cmp(CmpOp::Lt, Expr::lit(50));
        // Q3: the summed attribute is the filter's.
        let aggs = [
            AggSpec::sum(Expr::col("c8").mul(Expr::col("c32")), "xa"),
            AggSpec::sum(Expr::col("c32").mul(Expr::col("c8")), "ax"),
            AggSpec::sum(Expr::col("c8").mul(Expr::col("c8")), "xx"),
            AggSpec::sum(Expr::col("c32").mul(Expr::col("nz")), "ab"),
        ];
        let prog = TileProgram::lower_agg(&t, Some(&filter), None, &aggs, false).unwrap();
        let (x, a) = (0, 1);
        // Every sum is the fold's fused input, its operands as written —
        // access merging is the masked instance over the filter's column —
        // whatever the strategy or the proof.
        let fused = |a, b| Sink::Sum(FusedSum::Op(FusedOp::Mul, Src::Col(a), Src::Col(b)));
        let sinks = [fused(x, a), fused(a, x), fused(x, x), fused(a, 2)];
        assert_eq!(scalar_sinks(&prog, &aggs), sinks);
        let (one, n) = (&aggs[3..], AggSpec::count("n"));
        let counted = [one[0].clone(), n.clone()];

        // Grouped: one sum — fusable or not — is the fused input, any other
        // list its registers: sums and counts in passes, min / max folding.
        let grouped = |aggs: &[AggSpec]| {
            let prog = TileProgram::lower_agg(&t, Some(&filter), Some("u"), aggs, true).unwrap();
            (group_sink(&prog, aggs), prog.n_vals)
        };
        assert!(matches!(grouped(one).0, GroupSink::Fused(_)));
        let generic = [AggSpec::sum(
            Expr::Add(bx(Expr::col("c32")), bx(Expr::col("nz"))),
            "s",
        )];
        assert_eq!(
            grouped(&generic),
            (GroupSink::Fused(FusedSum::One(Src::Reg(2))), 3),
            "a non-fusable sum is one operand, its register: no register of ones"
        );
        // c32, nz and their product each have a register.
        let list = |slots: &[Slot]| GroupSink::List(slots.to_vec());
        let (sum, count) = (|r| (MergeOp::Add, Some(r)), (MergeOp::Add, None));
        assert_eq!(grouped(&counted), (list(&[sum(2), count]), 3));
        // A count's input is the shared tile of ones: no register.
        assert_eq!(grouped(&[AggSpec::count("n")]), (list(&[count]), 0));
        // Five aggregates are a pass of four and a pass of one.
        let bare = |c: &str| AggSpec::sum(Expr::col(c), c);
        let five = [
            bare("c32"),
            AggSpec::count("n"),
            bare("nz"),
            bare("c32"),
            aggs[3].clone(),
        ];
        let (sink, n_vals) = grouped(&five);
        assert!(matches!(&sink, GroupSink::List(l) if l.len() == 5 && l[3] == l[0]));
        assert_eq!(n_vals, 3, "the repeated column is loaded once");
        assert_eq!(sink.name("groupby_gather"), "groupby_gather<4+1>");
        assert_eq!(
            grouped(&counted).0.name("eager_aggregate"),
            "eager_aggregate<2>"
        );
        assert_eq!(grouped(one).0.name("groupby_gather"), "groupby_gather<1>");
        let with_min = [AggSpec::min(Expr::col("c32"), "lo"), AggSpec::count("n")];
        let (sink, _) = grouped(&with_min);
        assert_eq!(sink, list(&[(MergeOp::Min, Some(0)), count]));
        assert_eq!(sink.name("groupby_gather"), "groupby_gather<fold 2>");
    }

    /// A sum that leaves `i64` wraps, masked and gathered alike, in every
    /// build: the slot's running sum is one wrapping add.
    #[test]
    fn scalar_sinks_wrap() {
        let big = Arc::new(Table::new("t").with_column("v", ColumnData::I64(vec![i64::MAX, 1, 5])));
        let aggs = [AggSpec::sum(Expr::col("v").mul(Expr::lit(2)), "s")];
        let prog = Arc::new(TileProgram::lower_agg(&big, None, None, &aggs, false).unwrap());
        let bound = prog.bind(&big).unwrap();
        let want = i64::MAX.wrapping_mul(2).wrapping_add(2).wrapping_add(10);
        for masked in [true, false] {
            let sinks = scalar(&prog, &aggs, OverflowProof::I64);
            let mut regs = Regs::new(&prog);
            let mut acc = vec![i64::MAX];
            bound.run(&mut regs, 0, 3);
            let k = bound.select(&mut regs, 3);
            let lanes = match masked {
                true => Lanes::Masked(bound.filter(&regs, 3)),
                false => Lanes::Selected(&regs.idx[..k]),
            };
            bound.accumulate(&regs, &sinks, (lanes, None), (0, 3), &mut acc);
            assert_eq!(acc[0], want.wrapping_add(i64::MAX), "masked {masked}");
        }
    }

    #[test]
    fn scratch_covers_the_register_file() {
        let t = table(1);
        // One register per node: the load and eight dependent additions.
        let mut e = Expr::col("c32");
        for i in 0..8 {
            e = Expr::Add(bx(e), bx(Expr::Lit(i)));
        }
        let prog = TileProgram::lower(&t, None, &[Want::Reg(&e)]).unwrap();
        assert_eq!(prog.n_vals, 9);
        let regs = Regs::new(&prog);
        let real = regs.masks.iter().map(Vec::len).sum::<usize>()
            + 8 * (regs.vals.iter().map(Vec::len).sum::<usize>() + regs.tmp.len())
            + 4 * regs.idx.len();
        assert!(prog.scratch_bytes() >= real);
        assert!(prog.scratch_bytes() <= real + 8 * prog.outputs.len());
    }

    /// A build's constant filter mask is copied into a register of its own
    /// every tile; any other stage's is read where it is.
    #[test]
    fn the_filter_mask_is_rewritten_every_tile_even_when_constant() {
        let t = table(1);
        for filter in [None, Some(Expr::lit(1).cmp(CmpOp::Lt, Expr::lit(2)))] {
            let stage = TileProgram::lower(&t, filter.as_ref(), &[]).unwrap();
            let copies = |p: &TileProgram| {
                let copy = |i: &&Instr| matches!(i, Instr::CopyMask { .. });
                p.instrs.iter().filter(copy).count()
            };
            assert_eq!(copies(&stage), 0, "{filter:?}");
            let prog = Arc::new(TileProgram::lower_build(&t, filter.as_ref()).unwrap());
            assert_eq!(copies(&prog), 1, "{filter:?}");
            let bound = prog.bind(&t).unwrap();
            let mut regs = Regs::new(&prog);
            bound.run(&mut regs, 0, TILE);
            // A join stage narrows the mask in place...
            bound.filter_mut(&mut regs, TILE).fill(0);
            // ...and the next tile must not see what it left behind.
            bound.run(&mut regs, TILE, TILE);
            assert_eq!(predicate::mask_count(bound.filter(&regs, TILE)), TILE);
        }
    }

    /// A reload may store a column at another integer width: the program
    /// binds re-fitted to it and answers as the interpreter, literals
    /// outside the new range included. A dropped column or a dictionary ↔
    /// integer change is still a typed error.
    #[test]
    fn binding_rejects_a_drifted_table() {
        let t = table(1);
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let filters: Vec<Expr> = (ops.iter())
            .flat_map(|&op| [-5, 90, 1_000, -1_000].map(|x| Expr::col("c16").cmp(op, Expr::lit(x))))
            .collect();
        for filter in &filters {
            let prog = Arc::new(TileProgram::lower(&t, Some(filter), &[]).unwrap());
            assert!(
                matches!(prog.instrs[0], Instr::CmpColLit { .. }),
                "{filter:?}"
            );
            for values in [vec![-100, 5, 90, 100], vec![-5, 70_000, -70_000, 3]] {
                let retyped = Arc::new(Table::new("t").with_column("c16", ColumnData::I32(values)));
                let bound = prog.bind(&retyped).expect("an integer width change binds");
                let mut regs = Regs::new(&prog);
                bound.run(&mut regs, 0, retyped.len());
                let rows: Vec<u32> = (0..retyped.len() as u32).collect();
                let mut want = vec![0i64; rows.len()];
                filter.compile(&retyped).unwrap().eval(&rows, &mut want);
                let want: Vec<u8> = want.into_iter().map(|b| b as u8).collect();
                assert_eq!(bound.filter(&regs, retyped.len()), want, "{filter:?}");
            }
        }
        let prog = Arc::new(TileProgram::lower(&t, Some(&filters[0]), &[]).unwrap());
        let dict = ColumnData::Dict(DictColumn::encode(&["a"]));
        let recoded = Arc::new(Table::new("t").with_column("c16", dict));
        assert!(matches!(
            prog.bind(&recoded),
            Err(PlanError::ExecutionFailed(_))
        ));
        let dropped = Arc::new(Table::new("t").with_column("other", ColumnData::I8(vec![1])));
        assert!(matches!(
            prog.bind(&dropped),
            Err(PlanError::UnknownColumn { .. })
        ));
    }
}
