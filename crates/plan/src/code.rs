//! `EXPLAIN CODE`: the paper's generated code (Figs. 1, 3, 4, 5 and the
//! § III-D / III-E rewrites) as C-like text, printed from what each stage
//! of a [`PhysicalPlan`] dispatches on — its [`TileProgram`], one line per
//! instruction; its `Instance`, the lanes, membership and sinks; and its
//! join edges' build strategies — so the text shows the loop that runs and
//! no other. Windows, sorts, limits and statistics shortcuts get one line
//! each.
//!
//! Each instruction of a program and each fold of a sink is a loop of its
//! own over the tile's lanes, as the executor runs them. Registers are
//! named by class: the filter mask `cmp`, other masks `m<r>`, values
//! `v<r>`; a selection vector holds tile-local offsets in `idx[0..k]`.

use crate::expr::CmpOp;
use crate::logical::SortKey;
use crate::physical::{fold_mode, AggShape, GroupTableRepr, JoinEdge, Lanes, Membership};
use crate::physical::{PhysicalPlan, PostOp, Shape, Sinks, WindowShape};
use crate::tile::{folds, TileProgram, GROUP_ARITY};
use crate::tile::{ArithOp, DictMatcher, FusedOp, FusedSum, GroupSink, Instr, Sink, Src, Val};
use swole_cost::{BitmapBuild, SemiJoinStrategy};
use swole_ht::MergeOp;
use swole_verify::OverflowProof;

/// The code of `plan`, one line each, stages in execution order. `proof`
/// is the plan's certificate verdict, which picks the mode the sums run in.
pub(crate) fn render(plan: &PhysicalPlan, proof: OverflowProof) -> Vec<String> {
    let mut out = Code(Vec::new());
    match (&plan.shortcut, &plan.shape) {
        (Some(row), _) => out.line(
            0,
            format!("row = {row:?};  // statistics shortcut: no scan"),
        ),
        (None, Shape::Agg(a)) => agg(&mut out, a, proof),
        (None, Shape::WindowScan(w)) => out.line(0, window(w)),
    }
    for p in &plan.post {
        out.line(0, post(p));
    }
    out.0
}

/// Lines under construction.
struct Code(Vec<String>);

impl Code {
    fn line(&mut self, depth: usize, text: impl AsRef<str>) {
        self.0
            .push(format!("{}{}", "    ".repeat(depth), text.as_ref()));
    }

    /// `for (j = 0; j < n; j++)` over `body`.
    fn each(&mut self, d: usize, n: &str, body: &[String]) {
        let block = body.len() > 1;
        self.line(
            d,
            format!("for (j = 0; j < {n}; j++){}", if block { " {" } else { "" }),
        );
        for b in body {
            self.line(d + 1, b);
        }
        if block {
            self.line(d, "}");
        }
    }

    /// The tile loop over `table`: `prog`'s instructions, then `body`.
    fn tiles(&mut self, d: usize, table: &str, prog: &TileProgram, body: impl FnOnce(&mut Code)) {
        self.line(d, format!("for (i = 0; i < {table}; i += TILE) {{"));
        self.line(
            d + 1,
            format!("len = {table} - i < TILE ? {table} - i : TILE;"),
        );
        for ins in &prog.instrs {
            self.each(d + 1, "len", &[Names(prog).instr(ins)]);
        }
        body(self);
        self.line(d, "}");
    }

    /// Compact the filter mask into the selection vector (the no-branch
    /// fill; a sparse tile goes by set bit to the same `idx` and `k`).
    fn select(&mut self, d: usize) {
        self.line(d, "k = 0;");
        self.each(d, "len", &["idx[k] = j;".into(), "k += cmp[j];".into()]);
    }
}

/// Where a lane's column and register values are read, and how many lanes
/// there are: every lane in order, or those the selection vector names.
#[derive(Clone, Copy, PartialEq, Eq)]
struct At {
    row: &'static str,
    reg: &'static str,
    n: &'static str,
}

const LANE: At = At {
    row: "i+j",
    reg: "j",
    n: "len",
};
const SEL: At = At {
    row: "i+idx[j]",
    reg: "idx[j]",
    n: "k",
};

/// Operand names of one program.
struct Names<'p>(&'p TileProgram);

impl Names<'_> {
    fn col(&self, slot: usize, at: At) -> String {
        format!("{}[{}]", self.0.cols[slot].name, at.row)
    }

    fn mask_reg(&self, r: usize) -> String {
        match r == self.0.filter {
            true => "cmp".to_string(),
            false => format!("m{r}"),
        }
    }

    /// A mask read at lane `j`; a constant one is its value.
    fn mask(&self, r: usize) -> String {
        match self.0.const_masks.iter().find(|c| c.0 == r) {
            Some((_, b)) => b.to_string(),
            None => format!("{}[j]", self.mask_reg(r)),
        }
    }

    /// A value register read `at`; a constant one is its value.
    fn reg(&self, r: usize, at: At) -> String {
        match self.0.const_vals.iter().find(|c| c.0 == r) {
            Some((_, v)) => v.to_string(),
            None => format!("v{r}[{}]", at.reg),
        }
    }

    fn val(&self, v: Val) -> String {
        match v {
            Val::Reg(r) => self.reg(r, LANE),
            Val::Lit(x) => x.to_string(),
        }
    }

    /// `a OP b` of a fused sum; a sum's `* 1` is left out.
    fn fused(&self, sum: FusedSum, at: At) -> String {
        let src = |s| match s {
            Src::Col(c) => self.col(c, at),
            Src::Reg(r) => self.reg(r, at),
        };
        match (sum.op, src(sum.a), src(sum.b)) {
            (FusedOp::Mul, a, b) if b == "1" => a,
            (FusedOp::Mul, a, b) => format!("{a} * {b}"),
            (FusedOp::Div, a, b) => format!("{a} / {b}"),
        }
    }

    fn instr(&self, ins: &Instr) -> String {
        let (m, v) = (|r| self.mask(r), |r| self.reg(r, LANE));
        let set_m = |dst, rhs: String| format!("{}[j] = {rhs};", self.mask_reg(dst));
        let set_v = |dst, rhs: String| format!("v{dst}[j] = {rhs};");
        match *ins {
            Instr::CmpColLit { op, col, lit, dst } => {
                set_m(dst, format!("{} {} {lit}", self.col(col, LANE), cmp(op)))
            }
            Instr::CmpVal { op, a, b, dst } => {
                set_m(dst, format!("{} {} {}", v(a), cmp(op), self.val(b)))
            }
            Instr::DictMatch { dict, dst } => {
                let d = &self.0.dicts[dict];
                let pred = match &d.matcher {
                    DictMatcher::Like(p) => format!("LIKE '{p}'"),
                    DictMatcher::In(vals) => format!("IN ('{}')", vals.join("', '")),
                };
                let code = self.col(d.col, LANE);
                format!("{}  // {pred}", set_m(dst, format!("match{dict}[{code}]")))
            }
            Instr::NonZero { src, dst } => set_m(dst, format!("{} != 0", v(src))),
            Instr::CopyMask { src, dst } => set_m(dst, m(src)),
            Instr::And { a, b, dst } => set_m(dst, format!("{} & {}", m(a), m(b))),
            Instr::Or { a, b, dst } => set_m(dst, format!("{} | {}", m(a), m(b))),
            Instr::Not { src, dst } => set_m(dst, format!("!{}", m(src))),
            Instr::Load { col, dst } => set_v(dst, self.col(col, LANE)),
            Instr::Arith { op, a, b, dst } => {
                let op = match op {
                    ArithOp::Add => '+',
                    ArithOp::Sub => '-',
                    ArithOp::Mul => '*',
                    ArithOp::Div => '/',
                };
                set_v(dst, format!("{} {op} {}", self.val(a), self.val(b)))
            }
            Instr::Blend {
                mask,
                then,
                otherwise,
                dst,
            } => {
                let (t, o) = (self.val(then), self.val(otherwise));
                set_v(dst, format!("{} ? {t} : {o}", m(mask)))
            }
            Instr::MaskToVal { mask, dst } => set_v(dst, m(mask)),
        }
    }
}

fn cmp(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
    }
}

/// Whether position `pos` of `e`'s parent qualifies, in its structure.
fn hit(e: &JoinEdge, pos: &str) -> String {
    match e.strategy {
        SemiJoinStrategy::Hash => format!("ht_find(ht_{}, {pos})", e.parent),
        SemiJoinStrategy::PositionalBitmap(_) => format!("bitmap_get(bm_{}, {pos})", e.parent),
    }
}

/// Edge `e`'s build at nesting depth `d`, its chain edges' builds first.
fn build(out: &mut Code, d: usize, e: &JoinEdge) {
    let p = &e.parent;
    let (how, insert) = match e.strategy {
        SemiJoinStrategy::Hash => ("hash key set", format!("ht_insert(ht_{p}, i+idx[j]);")),
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional) => (
            "positional bitmap, packed from the mask",
            format!("bitmap_assign(bm_{p}, i+j, cmp[j]);"),
        ),
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector) => (
            "positional bitmap, set by selection",
            format!("bitmap_set(bm_{p}, i+idx[j]);"),
        ),
    };
    out.line(d, format!("// {}: {how}", JoinEdge::build_op(p)));
    for c in &e.children {
        build(out, d + 1, c);
    }
    out.tiles(d, p, &e.parent_program, |out| {
        for c in &e.children {
            let pos = format!("{}[i+j]", c.fk_col);
            out.each(d + 1, "len", &[format!("cmp[j] &= {};", hit(c, &pos))]);
        }
        let at = match e.strategy {
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional) => LANE,
            _ => SEL,
        };
        if at == SEL {
            out.select(d + 1);
        }
        out.each(d + 1, at.n, &[insert]);
    });
}

/// One accumulator update: `acc` folds `v` (`None`: a count) by `op`,
/// kept where `keep` is set (`None`: the lane is selected).
fn fold(acc: &str, op: MergeOp, v: Option<String>, keep: Option<&str>) -> String {
    let f = if op == MergeOp::Min { "min" } else { "max" };
    match (op, v, keep) {
        (MergeOp::Add, None, k) => format!("{acc} += {};", k.unwrap_or("1")),
        (MergeOp::Add, Some(v), None) => format!("{acc} += {v};"),
        (MergeOp::Add, Some(v), Some(k)) => format!("{acc} += ({v}) * {k};"),
        (_, v, None) => format!("{acc} = {f}({acc}, {});", v.unwrap_or_default()),
        (_, v, Some(k)) => format!(
            "{acc} = {k} ? {f}({acc}, {}) : {acc};",
            v.unwrap_or_default()
        ),
    }
}

/// An aggregating stage: its edges' builds, then its tile loop.
fn agg(out: &mut Code, s: &AggShape, proof: OverflowProof) {
    for e in &s.edges {
        build(out, 0, e);
    }
    let inst = &s.instance;
    let lanes = match inst.lanes {
        Lanes::Selected => "selected lanes",
        Lanes::Masked => "masked lanes",
        Lanes::KeyMasked => "key-masked lanes",
        Lanes::Every => "every lane",
    };
    out.line(0, format!("// {}: {lanes}{inst}", s.op_name()));
    let sinks = match &inst.sink {
        Sinks::Grouped(sink) => return grouped(out, s, sink),
        Sinks::Scalar(sinks) => sinks,
    };
    let masked = inst.lanes != Lanes::Selected;
    let member = inst.member == Membership::Bitmap;
    let sums = sinks.iter().any(|s| matches!(s, Sink::Sum(_)));
    if sums && fold_mode(proof, masked, member) == OverflowProof::I32Tile {
        out.line(0, "// sums fold in i32 lanes per tile");
    }
    let slots: Vec<_> = sinks.iter().zip(&s.aggs).collect();
    for (sink, a) in &slots {
        let init = match sink {
            Sink::Min(_) => "INT64_MAX",
            Sink::Max(_) => "INT64_MIN",
            Sink::Count | Sink::Sum(_) => "0",
        };
        out.line(0, format!("{} = {init};", a.name));
    }
    let names = Names(&s.program);
    out.tiles(0, &s.table, &s.program, |out| {
        let at = front(out, s);
        // A masked lane is kept under the filter and the membership.
        let keep = match (at == SEL, s.edges.first()) {
            (true, _) => None,
            (false, Some(e)) if member => Some(format!(
                "(cmp[j] & {})",
                hit(e, &format!("{}[i+j]", e.fk_col))
            )),
            (false, _) => Some("cmp[j]".to_string()),
        };
        for (sink, a) in slots {
            let (op, v) = match *sink {
                Sink::Count if at == SEL => {
                    out.line(1, format!("{} += k;", a.name));
                    continue;
                }
                Sink::Count => (MergeOp::Add, None),
                Sink::Sum(sum) => (MergeOp::Add, Some(names.fused(sum, at))),
                Sink::Min(r) => (MergeOp::Min, Some(names.reg(r, at))),
                Sink::Max(r) => (MergeOp::Max, Some(names.reg(r, at))),
            };
            out.each(1, at.n, &[fold(&a.name, op, v, keep.as_deref())]);
        }
    });
}

/// A grouped stage's table and upsert passes, then — eager aggregation —
/// its settling with the edge after the merge.
fn grouped(out: &mut Code, s: &AggShape, sink: &GroupSink) {
    let table = match s.group_table {
        GroupTableRepr::Hash => "hash_table()".to_string(),
        GroupTableRepr::Dense { min, max, .. } => format!("dense_table({min}..={max})"),
    };
    out.line(0, format!("ht = {table};"));
    let (lanes, names) = (s.instance.lanes, Names(&s.program));
    out.tiles(0, &s.table, &s.program, |out| {
        let at = front(out, s);
        let mut key = match (s.edges.first(), s.program.key) {
            (Some(e), _) => format!("{}[{}]", e.fk_col, at.row),
            (None, Some(k)) => names.col(k, at),
            (None, None) => unreachable!("a zero-edge grouped stage lowers its key"),
        };
        if lanes == Lanes::KeyMasked {
            out.each(1, "len", &[format!("key[j] = cmp[j] ? {key} : NULL_KEY;")]);
            key = "key[j]".to_string();
        }
        // The one fused sum, a list with `min` / `max` in one folding
        // pass, any other list in passes of `GROUP_ARITY`.
        let (slots, width): (Vec<_>, _) = match sink {
            GroupSink::Fused(sum) => (vec![(MergeOp::Add, Some(names.fused(*sum, at)))], 1),
            GroupSink::List(list) => (
                list.iter()
                    .map(|&(op, input)| (op, input.map(|r| names.reg(r, at))))
                    .collect(),
                if folds(list) { list.len() } else { GROUP_ARITY },
            ),
        };
        let slots: Vec<_> = slots.into_iter().zip(&s.aggs).collect();
        let keep = (lanes == Lanes::Masked).then_some("cmp[j]");
        for pass in slots.chunks(width) {
            let mut body = vec![format!("e = ht_lookup(ht, {key});")];
            for ((op, v), a) in pass {
                body.push(fold(&format!("e->{}", a.name), *op, v.clone(), keep));
            }
            body.extend(keep.map(|k| format!("e->valid |= {k};")));
            out.each(1, at.n, &body);
        }
    });
    if let (Lanes::Every, Some(e)) = (lanes, s.edges.first()) {
        let p = &e.parent;
        out.line(
            0,
            format!("// after the merge: drop the groups whose {p} row fails"),
        );
        out.line(0, format!("for (p = 0; p < {p}; p++)"));
        out.line(1, format!("if (!{})", hit(e, "p")));
        out.line(2, "ht_delete(ht, p);");
    }
}

/// The lanes' front end inside the tile loop: a selection vector narrowed
/// through each edge, or every lane.
fn front(out: &mut Code, s: &AggShape) -> At {
    if s.instance.lanes != Lanes::Selected {
        return LANE;
    }
    out.select(1);
    for e in &s.edges {
        out.line(1, "kk = 0;");
        let probe = hit(e, &format!("{}[i+idx[j]]", e.fk_col));
        out.each(
            1,
            "k",
            &["idx[kk] = idx[j];".into(), format!("kk += {probe};")],
        );
        out.line(1, "k = kk;");
    }
    SEL
}

fn window(w: &WindowShape) -> String {
    let table = &w.table;
    if w.funcs.is_empty() {
        let n = w.select.len();
        return format!("project({table}: filter to idx, gather {n} column(s));");
    }
    let mut by: Vec<String> = w.partition_by.iter().cloned().collect();
    by.extend(w.order_by.iter().map(sort_key));
    let (strategy, n) = (w.strategy.name(), w.funcs.len());
    format!(
        "window({table}: filter to idx, sort by {}, {strategy} over {n} fn(s));",
        by.join(", ")
    )
}

fn sort_key(k: &SortKey) -> String {
    format!("{} {}", k.column, if k.desc { "desc" } else { "asc" })
}

fn post(p: &PostOp) -> String {
    match p {
        PostOp::Sort { keys } => {
            let keys: Vec<String> = keys.iter().map(sort_key).collect();
            format!("sort(rows by {});", keys.join(", "))
        }
        PostOp::Limit { n } => format!("rows = first(rows, {n});"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StrategyOverrides;
    use crate::tile::{Output, Want};
    use crate::{parse_sql, Database, Engine, ExplainMode, Expr};
    use swole_cost::{AggStrategy, BitmapBuild, GroupJoinStrategy, SemiJoinStrategy};
    use swole_storage::{ColumnData, Table};

    /// The figures' `R(a, x, c, fk)` and `S(x)`, `R.fk` pointing into `S`.
    fn db() -> Database {
        let n = 8_192u32;
        let mut db = Database::new();
        let col = |f: fn(u32) -> i32| ColumnData::I32((0..n).map(f).collect());
        db.add_table(
            Table::new("R")
                .with_column("a", col(|i| (i % 7) as i32))
                .with_column("x", col(|i| (i * 37 % 100) as i32))
                .with_column("c", col(|i| (i % 16) as i32))
                .with_column(
                    "fk",
                    ColumnData::U32((0..n).map(|i| i * 13 % 256).collect()),
                ),
        );
        let s = ColumnData::I32((0..256).map(|i| i * 59 % 100).collect());
        db.add_table(Table::new("S").with_column("x", s));
        db.add_fk("R", "fk", "S").expect("R.fk indexes S");
        db
    }

    /// `EXPLAIN CODE` of `sql` under `pins`, one string.
    fn code(pins: StrategyOverrides, sql: &str) -> String {
        let engine = Engine::builder(db()).strategies(pins).build();
        let parsed = parse_sql(&format!("explain code {sql}")).expect("parses");
        assert_eq!(parsed.explain, Some(ExplainMode::Code));
        let c = engine.explain_code(&parsed.plan).expect("plans").code;
        c.join("\n")
    }

    const FIG1: &str = "select sum(a) as s from R where x < 13";
    const FIG4: &str = "select c, sum(a) as s from R where x < 13 group by c";
    const FIG5: &str = "select sum(a * x) as s from R where x < 13";
    const SEMIJOIN: &str = "select sum(R.a) as s from R, S where R.fk = S.rowid and S.x < 13";
    const GROUPJOIN: &str = "select R.fk, sum(R.a) as s from R, S \
                             where R.fk = S.rowid and S.x < 13 group by R.fk";

    /// Operands are named from the program: a column at its row, `i+j` or
    /// through the selection vector; a register at its lane; a constant
    /// register as its value, and a sum's `* 1` left out.
    #[test]
    fn index_expr_rewrites_identifiers() {
        let db = db();
        let r = db.table("R").expect("R");
        let (ax, case) = (
            Expr::col("a").mul(Expr::col("x")),
            Expr::Case {
                when: Box::new(Expr::col("x").cmp(CmpOp::Gt, Expr::lit(5))),
                then: Box::new(Expr::col("a")),
                otherwise: Box::new(Expr::lit(0)),
            },
        );
        let wants = [
            Want::Fused(&ax),
            Want::Fused(&Expr::col("a")),
            Want::Reg(&case),
        ];
        let prog = TileProgram::lower(r, None, &wants).expect("lowers");
        let names = Names(&prog);
        let fused = |i: usize, at| match prog.output(i) {
            Some(Output::Op(sum)) => names.fused(sum, at),
            other => panic!("output {i} is {other:?}"),
        };
        assert_eq!(fused(0, LANE), "a[i+j] * x[i+j]");
        assert_eq!(fused(0, SEL), "a[i+idx[j]] * x[i+idx[j]]");
        assert_eq!(fused(1, SEL), "a[i+idx[j]]");
        let blend = prog.output_reg(2);
        assert_eq!(names.reg(blend, SEL), format!("v{blend}[idx[j]]"));
        let text: Vec<String> = prog.instrs.iter().map(|i| names.instr(i)).collect();
        // No filter: the constant mask is copied to the filter's register.
        let expected = [
            "m1[j] = x[i+j] > 5;",
            "v1[j] = a[i+j];",
            "v2[j] = m1[j] ? v1[j] : 0;",
            "cmp[j] = 1;",
        ];
        assert_eq!(text, expected);
    }

    #[test]
    fn cmp_op_display() {
        assert_eq!(cmp(CmpOp::Le), "<=");
        assert_eq!(cmp(CmpOp::Eq), "==");
        assert_eq!(cmp(CmpOp::Ne), "!=");
    }

    fn agg(s: AggStrategy) -> StrategyOverrides {
        StrategyOverrides::pin_agg(s)
    }

    fn semijoin(s: SemiJoinStrategy) -> StrategyOverrides {
        StrategyOverrides::pin_semijoin(s)
    }

    #[test]
    fn hybrid_has_three_inner_loops() {
        let c = code(agg(AggStrategy::Hybrid), FIG1);
        assert_eq!(c.matches("for (j = 0;").count(), 3, "{c}");
        assert!(c.contains("cmp[j] = x[i+j] < 13;"), "{c}");
        assert!(
            c.contains("k += cmp[j];"),
            "no-branch selection vector: {c}"
        );
        // The selection vector holds tile-local offsets.
        assert!(c.contains("s += a[i+idx[j]];"), "{c}");
    }

    #[test]
    fn value_masking_matches_fig3() {
        let c = code(agg(AggStrategy::ValueMasking), FIG1);
        assert!(c.contains("cmp[j] = x[i+j] < 13;"), "{c}");
        assert!(c.contains("s += (a[i+j]) * cmp[j];"), "{c}");
        assert!(
            !c.contains("idx"),
            "no selection vector in value masking: {c}"
        );
    }

    /// Fig. 5's repeated reference is served as the masked fold over the
    /// filter's column: `x` is read by the prepass and by the fold, with no
    /// separate `tmp` loop.
    #[test]
    fn access_merging_reads_shared_attr_once() {
        let c = code(agg(AggStrategy::ValueMasking), FIG5);
        assert!(c.contains("s += (a[i+j] * x[i+j]) * cmp[j];"), "{c}");
        assert!(!c.contains("tmp"), "{c}");
        assert_eq!(c.matches("x[i+j]").count(), 2, "{c}");
    }

    #[test]
    fn access_merging_both_operands_shared() {
        let sql = "select sum(x * x) as s from R where x < 13";
        let c = code(agg(AggStrategy::ValueMasking), sql);
        assert!(c.contains("s += (x[i+j] * x[i+j]) * cmp[j];"), "{c}");
    }

    #[test]
    fn groupby_value_masking_matches_fig4_top() {
        let c = code(agg(AggStrategy::ValueMasking), FIG4);
        assert!(c.contains("e = ht_lookup(ht, c[i+j]);"), "{c}");
        assert!(c.contains("e->s += (a[i+j]) * cmp[j];"), "{c}");
        assert!(c.contains("e->valid |= cmp[j];"), "bookkeeping flag: {c}");
    }

    #[test]
    fn groupby_key_masking_matches_fig4_bottom() {
        let c = code(agg(AggStrategy::KeyMasking), FIG4);
        // The prepass wrote the predicate to `cmp`; the key is routed by it.
        assert!(c.contains("key[j] = cmp[j] ? c[i+j] : NULL_KEY;"), "{c}");
        assert!(c.contains("e = ht_lookup(ht, key[j]);"), "{c}");
        assert!(c.contains("e->s += a[i+j];"), "value not masked: {c}");
        assert!(!c.contains("valid"), "no bookkeeping needed: {c}");
    }

    #[test]
    fn bitmap_semijoin_is_branch_free() {
        let packed = BitmapBuild::Unconditional;
        let c = code(
            semijoin(SemiJoinStrategy::PositionalBitmap(packed)),
            SEMIJOIN,
        );
        assert!(c.contains("cmp[j] = x[i+j] < 13;"), "{c}");
        assert!(c.contains("bitmap_assign(bm_S, i+j, cmp[j]);"), "{c}");
        let probe = "s += (a[i+j]) * (cmp[j] & bitmap_get(bm_S, fk[i+j]));";
        assert!(c.contains(probe), "{c}");
        assert!(!c.contains("if ("), "no branches: {c}");
        let h = code(semijoin(SemiJoinStrategy::Hash), SEMIJOIN);
        assert!(h.contains("ht_insert(ht_S, i+idx[j]);"), "{h}");
        assert!(h.contains("kk += ht_find(ht_S, fk[i+idx[j]]);"), "{h}");
    }

    /// A sum / count list upserts in passes of `GROUP_ARITY` slots, a list
    /// with `min` / `max` in one folding pass: one lookup per pass.
    #[test]
    fn grouped_lists_upsert_in_the_passes_that_run() {
        let five = "select c, sum(a) as s, count(*) as n, sum(x) as t, sum(c) as u, \
                    sum(a * x) as w from R where x < 13 group by c";
        let c = code(agg(AggStrategy::Hybrid), five);
        assert!(c.contains("groupby_gather<4+1>"), "{c}");
        assert_eq!(
            c.matches("e = ht_lookup(ht, c[i+idx[j]]);").count(),
            2,
            "{c}"
        );
        assert!(c.contains("e->n += 1;"), "a count adds one per lane: {c}");
        let min = "select c, sum(a) as s, min(x) as lo from R where x < 13 group by c";
        let c = code(StrategyOverrides::default(), min);
        assert!(c.contains("groupby_gather<fold 2>"), "{c}");
        assert_eq!(c.matches("ht_lookup").count(), 1, "{c}");
        assert!(c.contains("e->lo = min(e->lo, "), "{c}");
    }

    /// Eager aggregation does not scan `S` under the inverted predicate:
    /// the build keeps the predicate as written, and the groups whose bit
    /// is clear are deleted once, after the workers' tables merge.
    #[test]
    fn eager_aggregation_inverts_predicate() {
        let pin = StrategyOverrides::pin_groupjoin;
        let c = code(pin(GroupJoinStrategy::EagerAggregation), GROUPJOIN);
        assert!(c.contains("cmp[j] = x[i+j] < 13;"), "{c}");
        assert!(c.contains("e = ht_lookup(ht, fk[i+j]);"), "every lane: {c}");
        assert!(c.contains("if (!bitmap_get(bm_S, p))"), "{c}");
        assert!(c.contains("ht_delete(ht, p);"), "{c}");
        let g = code(pin(GroupJoinStrategy::GroupJoin), GROUPJOIN);
        assert!(g.contains("cmp[j] = x[i+j] < 13;"), "{g}");
        assert!(g.contains("e = ht_lookup(ht, fk[i+idx[j]]);"), "{g}");
        assert!(!g.contains("ht_delete"), "{g}");
    }
}
