//! Neutral verification IR.
//!
//! The engine lowers a composed physical plan into a [`Program`]: the tables
//! and foreign keys it touches, plus one [`Op`] per pipeline stage carrying
//! its expressions, the pullup artifacts it produces/consumes, the strategy it
//! committed to with the access signature of the loop that runs it, and its
//! allocation sites. The IR is deliberately independent
//! of the planner's internal `Shape` so ill-formed programs can be constructed
//! directly in tests.

use std::fmt;

use swole_cost::{AggStrategy, GroupJoinStrategy, SemiJoinStrategy, WindowStrategy};

/// Verifier-visible column type, collapsed from the storage layer's
/// physical types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// A signed integer of the given width in bits (8, 16, 32 or 64),
    /// including decimals and dates stored as scaled/epoch integers.
    Int(u32),
    /// Unsigned 32-bit (raw FK key columns).
    U32,
    /// Dictionary-encoded string codes.
    Dict,
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColType::Int(_) => "int",
            ColType::U32 => "u32",
            ColType::Dict => "dict",
        };
        f.write_str(s)
    }
}

/// A column declaration inside a [`TableDecl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDecl {
    /// Column name.
    pub name: String,
    /// Verifier-visible type.
    pub ty: ColType,
}

/// A table the program touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDecl {
    /// Table name.
    pub name: String,
    /// Row count at plan time (the domain of masks/bitmaps over this table).
    pub rows: usize,
    /// Column declarations.
    pub columns: Vec<ColumnDecl>,
}

impl TableDecl {
    /// Look up a column's type by name.
    #[must_use]
    pub fn col_type(&self, name: &str) -> Option<ColType> {
        self.columns.iter().find(|c| c.name == name).map(|c| c.ty)
    }
}

/// A foreign-key edge the program probes through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FkDecl {
    /// Child (probe-side) table.
    pub child: String,
    /// FK column on the child.
    pub fk_col: String,
    /// Parent (build-side) table.
    pub parent: String,
    /// Child row count.
    pub child_rows: usize,
    /// Parent row count — the domain positional artifacts must be sized to.
    pub parent_rows: usize,
}

/// A reference to a foreign-key edge, used by [`Import`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FkRef {
    /// Child (probe-side) table.
    pub child: String,
    /// FK column on the child.
    pub fk_col: String,
    /// Parent (build-side) table.
    pub parent: String,
}

/// Arithmetic operator carried by [`VExpr::Arith`] — the bounds pass needs
/// the operator to run interval arithmetic; the structural passes ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// Expression tree as the verifier sees it: enough structure for column,
/// type, and binding checks without the planner's evaluation semantics,
/// plus literal values and arithmetic operators for value-range analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VExpr {
    /// Column reference (resolved against the operator's table).
    Col(String),
    /// Literal constant (the value feeds the bounds pass's range analysis).
    Lit(i64),
    /// Unbound parameter placeholder (always an error by plan time).
    Param(usize),
    /// Dictionary predicate (`LIKE`, `IN (...)`) over a column; the column
    /// must be dictionary-encoded.
    DictPredicate(String),
    /// Comparison over sub-expressions.
    Cmp(Vec<VExpr>),
    /// Arithmetic over sub-expressions (dictionary codes are not valid here).
    Arith(ArithOp, Vec<VExpr>),
    /// Boolean connective over sub-expressions.
    Bool(Vec<VExpr>),
    /// CASE expression: conditions and branch values interleaved.
    Case(Vec<VExpr>),
}

/// The role an expression plays in its operator, which determines the type
/// contexts pass 1 enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprRole {
    /// Filter predicate (boolean context).
    Predicate,
    /// Aggregate input (numeric context — dictionary codes rejected).
    AggInput,
    /// Group-by key (any column type).
    GroupKey,
}

/// An expression bound to its role in an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundExpr {
    /// Role in the operator.
    pub role: ExprRole,
    /// The expression tree.
    pub expr: VExpr,
}

/// The kinds of pullup artifacts operators materialize and exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Dense index list of qualifying lanes (hybrid strategy prepass).
    SelectionVector,
    /// 0/1 multiplier mask over values (value-masking strategy).
    ValueMask,
    /// Mask folded into the aggregation key (key-masking strategy).
    KeyMask,
    /// Bit-per-parent-row qualifying bitmap (positional semijoin).
    PositionalBitmap,
    /// Byte-per-parent-row qualifying map (positional semijoin over a
    /// parent small enough for one).
    PositionalBytes,
    /// Hash set of qualifying build keys (hash semijoin).
    KeySet,
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArtifactKind::SelectionVector => "selection vector",
            ArtifactKind::ValueMask => "value mask",
            ArtifactKind::KeyMask => "key mask",
            ArtifactKind::PositionalBitmap => "positional bitmap",
            ArtifactKind::PositionalBytes => "positional byte map",
            ArtifactKind::KeySet => "key set",
        };
        f.write_str(s)
    }
}

/// The lifetime/visibility scope of an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Lives within one tile of one worker; may never cross operators.
    Tile,
    /// Lives within one morsel of one worker; may never cross operators.
    Morsel,
    /// Materialized once per plan; the only scope allowed to cross operators.
    Plan,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scope::Tile => "tile",
            Scope::Morsel => "morsel",
            Scope::Plan => "plan",
        };
        f.write_str(s)
    }
}

/// A pullup artifact an operator materializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Kind of artifact.
    pub kind: ArtifactKind,
    /// Table whose row positions form the artifact's domain.
    pub table: String,
    /// Rows the artifact covers.
    pub rows: usize,
    /// Lifetime scope.
    pub scope: Scope,
}

/// An artifact an operator consumes from an earlier operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// Kind of artifact expected.
    pub kind: ArtifactKind,
    /// Domain table the artifact must cover.
    pub table: String,
    /// FK edge the consumer indexes the artifact through, if positional.
    pub via_fk: Option<FkRef>,
}

/// A heap allocation site reachable from the operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alloc {
    /// Site name (e.g. "worker-scratch", "positional-bitmap").
    pub site: String,
    /// Whether the site charges the engine's `MemGauge` before allocating.
    pub charged: bool,
}

/// How a loop touches one attribute stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Every position in order: `a[i+j]` under a dense loop.
    Sequential,
    /// Data-dependent positions: `bitmap_get(bm, fk_index[i])`,
    /// `ht_find(ht, fk[i])`.
    Gather,
    /// Only selected positions, via branch or selection vector:
    /// `a[idx[j]]`, `if (...) sum += a[i]`.
    Conditional,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Access::Sequential => "sequential",
            Access::Gather => "gather",
            Access::Conditional => "conditional",
        };
        f.write_str(s)
    }
}

/// Per-operator access signature: one [`Access`] per attribute stream the
/// loop reads or writes, `None` where the stream does not exist for the
/// shape (e.g. no group key in a scalar aggregate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSig {
    /// Predicate input columns.
    pub predicate: Option<Access>,
    /// Aggregate input columns.
    pub agg_input: Option<Access>,
    /// Group-key column.
    pub group_key: Option<Access>,
    /// Auxiliary structure (hash table, bitmap, aggregate table) accesses.
    pub structure: Option<Access>,
}

/// Which composed-kernel strategy an operator committed to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyRef {
    /// Scan-aggregate (scalar or grouped) under an aggregation strategy.
    Agg {
        /// Chosen aggregation strategy.
        strategy: AggStrategy,
        /// Whether the operator aggregates by group key.
        grouped: bool,
    },
    /// Build side of a semijoin.
    SemiJoinBuild(SemiJoinStrategy),
    /// Probe side of a semijoin.
    SemiJoinProbe {
        /// Chosen semijoin strategy.
        strategy: SemiJoinStrategy,
        /// Whether the probe folds the membership test into a value mask
        /// (predicate pullup) instead of a selection vector.
        probe_masked: bool,
    },
    /// Probe side of a groupjoin (or its eager-aggregation alternative).
    GroupJoin(GroupJoinStrategy),
    /// Window operator over sorted qualifying rows.
    Window {
        /// Chosen frame-state strategy.
        strategy: WindowStrategy,
    },
    /// ORDER BY post-operator (result re-ordering).
    Sort,
    /// LIMIT post-operator (prefix truncation).
    Limit,
}

/// A strategy an operator committed to: the one the cost model priced, and
/// the access signature of the loop the executor dispatches for it. Pass 3
/// checks that the two agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Committed {
    /// The strategy the plan priced.
    pub priced: StrategyRef,
    /// How the loop that runs reads each attribute stream.
    pub runs: AccessSig,
}

/// One pipeline stage of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Operator name (e.g. "groupby-agg(lineitem)").
    pub name: String,
    /// Plan-path provenance for error messages (e.g. "/multijoin-agg/probe").
    pub path: String,
    /// Table the operator scans.
    pub table: String,
    /// Rows the operator scans.
    pub rows: usize,
    /// Expressions evaluated by the operator, tagged with their role.
    pub exprs: Vec<BoundExpr>,
    /// Strategy the operator committed to, if it composes kernels, with the
    /// signature of the loop that runs it.
    pub strategy: Option<Committed>,
    /// Cost terms the plan carries for this operator (may be empty for
    /// operators the model does not price, e.g. forced min/max strategies).
    pub cost_terms: Vec<String>,
    /// Artifacts materialized and consumed only within this operator.
    pub locals: Vec<Artifact>,
    /// Artifacts materialized here for later operators (must be plan-scoped).
    pub exports: Vec<Artifact>,
    /// Artifacts consumed from earlier operators.
    pub imports: Vec<Import>,
    /// Heap allocation sites reachable from this operator.
    pub allocs: Vec<Alloc>,
    /// Columns the operator materializes per qualifying row (window phase 2:
    /// partition key + order keys + projected columns + function inputs).
    /// `None` for operators that materialize no per-row columns.
    pub mat_cols: Option<usize>,
    /// Number of aggregate accumulators the operator maintains (sizes
    /// per-worker scratch and hash-table payloads in the bounds pass).
    /// `None` for non-aggregating operators.
    pub n_aggs: Option<usize>,
    /// Bytes each worker of the operator's morsel stage charges for its
    /// tile scratch — the lowered tile program's register file, as the
    /// engine's `TileProgram::scratch_bytes` reports it. The bounds pass
    /// has no sizing formula of its own for scratch; it reads this.
    pub scratch_bytes: usize,
    /// Keys of the dense-array group table each worker of a grouped
    /// operator fills, when the plan chose that representation (the key
    /// domain is known exactly); `None` for the growing hash table. The
    /// bounds pass sizes the table the operator will actually run.
    pub dense_group_slots: Option<usize>,
}

impl Op {
    /// A minimal well-formed operator over `table`, for building programs
    /// incrementally (used by the engine lowering and by tests).
    #[must_use]
    pub fn new(name: &str, path: &str, table: &str, rows: usize) -> Self {
        Op {
            name: name.to_string(),
            path: path.to_string(),
            table: table.to_string(),
            rows,
            exprs: Vec::new(),
            strategy: None,
            cost_terms: Vec::new(),
            locals: Vec::new(),
            exports: Vec::new(),
            imports: Vec::new(),
            allocs: Vec::new(),
            mat_cols: None,
            n_aggs: None,
            scratch_bytes: 0,
            dense_group_slots: None,
        }
    }
}

/// A complete lowered plan: the unit of verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Tables the plan touches.
    pub tables: Vec<TableDecl>,
    /// Foreign-key edges the plan probes through.
    pub fks: Vec<FkDecl>,
    /// Pipeline stages in execution order.
    pub ops: Vec<Op>,
    /// Tile width tile-scoped artifacts must be sized to.
    pub tile_rows: usize,
}

impl Program {
    /// Look up a table declaration by name.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&TableDecl> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Look up a foreign-key declaration by (child, fk_col, parent).
    #[must_use]
    pub fn fk(&self, child: &str, fk_col: &str, parent: &str) -> Option<&FkDecl> {
        self.fks
            .iter()
            .find(|f| f.child == child && f.fk_col == fk_col && f.parent == parent)
    }
}

#[cfg(test)]
impl Committed {
    /// `priced`, run by the loop the cost model assumes for it.
    pub(crate) fn as_modelled(priced: StrategyRef) -> Committed {
        let runs = crate::passes::modelled_signature(&priced);
        Committed { priced, runs }
    }
}
