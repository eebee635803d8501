//! Static plan verifier and access-pattern linter for the SWOLE engine.
//!
//! The engine lowers every composed physical plan into a neutral [`ir::Program`]
//! (tables, foreign keys, and per-operator expressions, artifacts, strategy
//! references, and allocation sites), then runs it through up to four passes:
//!
//! 1. **Schema/type soundness** ([`passes::check_schema`]) — every referenced
//!    column exists with a verifier-visible type, dictionary columns only reach
//!    dictionary-capable predicates, and every `Param` slot is bound.
//! 2. **Domain discipline** ([`passes::check_domains`]) — selection vectors,
//!    value/key masks, and positional bitmaps are produced before consumed,
//!    sized to the correct table/FK domain, and never escape the tile/morsel
//!    scope they were built in.
//! 3. **Access-pattern signatures** ([`passes::check_signatures`]) — the
//!    per-attribute sequential/gather/conditional signature of the loop the
//!    executor dispatches ([`ir::Committed::runs`]) must agree with the
//!    pattern the cost model assumed when pricing the strategy
//!    ([`passes::modelled_signature`]), and the plan must carry the cost term
//!    that priced it.
//! 4. **Resource accounting** ([`passes::check_resources`]) — every allocation
//!    site reachable from the plan charges the memory gauge, and every
//!    heap-materialized artifact has a covering allocation site.
//!
//! [`VerifyLevel::Structural`] runs passes 1–2; [`VerifyLevel::Full`] runs all
//! four. Verification happens once per plan fingerprint at plan time — never
//! per morsel — so `Off` has zero execution-path overhead.
//!
//! A fifth, certification pass ([`bounds`]) runs abstract interpretation over
//! the same IR to derive a [`PlanCertificate`]: sound upper bounds on rows,
//! bytes, and hash-table growth per operator, plus value-range proofs of
//! which arithmetic sites cannot overflow. The engine enforces certificates
//! at admission time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod ir;
pub mod passes;

pub use bounds::{
    certify, BoundsCtx, ColumnProfile, OpBounds, OverflowProof, PlanCertificate, TableProfile,
};

use std::fmt;

use ir::{ArtifactKind, Program, Scope};

/// How much static verification the engine performs at plan time.
///
/// Ordered: `Off < Structural < Full`. A cached plan remembers the strongest
/// level it has passed, so raising the session level re-verifies cache hits
/// exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum VerifyLevel {
    /// No verification.
    #[default]
    Off,
    /// Passes 1–2: schema/type soundness and artifact domain discipline.
    Structural,
    /// All four passes, including the access-signature cross-check of the
    /// dispatched loops against the cost model, and resource accounting.
    Full,
}

impl VerifyLevel {
    /// The default level for the current build profile: `Structural` in debug
    /// and test builds, `Off` in release builds.
    #[must_use]
    pub fn default_for_build() -> Self {
        if cfg!(debug_assertions) {
            VerifyLevel::Structural
        } else {
            VerifyLevel::Off
        }
    }
}

impl fmt::Display for VerifyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VerifyLevel::Off => "off",
            VerifyLevel::Structural => "structural",
            VerifyLevel::Full => "full",
        };
        f.write_str(s)
    }
}

/// A verification failure: what went wrong ([`VerifyErrorKind`]) and where in
/// the plan it was detected (`path`, e.g. `/multijoin-agg/build(supplier)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Plan-path provenance of the rejected construct.
    pub path: String,
    /// The violated invariant.
    pub kind: VerifyErrorKind,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.path)
    }
}

/// The specific invariant a [`VerifyError`] reports as violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// An expression references a column the operator's table does not have.
    UnknownColumn {
        /// Table the operator scans.
        table: String,
        /// Missing column name.
        column: String,
    },
    /// A column reached a context its verifier-visible type does not support
    /// (e.g. a dictionary column used as an arithmetic/aggregate input).
    TypeMismatch {
        /// Table owning the column.
        table: String,
        /// Offending column.
        column: String,
        /// The context that rejected it (e.g. "arithmetic", "aggregate input").
        context: String,
    },
    /// A `LIKE`/`IN`-style dictionary predicate was applied to a column that
    /// is not dictionary-encoded.
    NonDictPredicate {
        /// Table owning the column.
        table: String,
        /// Offending column.
        column: String,
    },
    /// A parameter placeholder survived to the physical plan unbound.
    UnboundParam {
        /// Zero-based parameter ordinal.
        ordinal: usize,
    },
    /// An operator imports an artifact no earlier operator exports.
    ConsumedBeforeProduced {
        /// Artifact kind the importer asked for.
        kind: ArtifactKind,
        /// Domain table the importer expected it over.
        table: String,
    },
    /// An artifact's row domain disagrees with the table/FK domain it is
    /// indexed by (e.g. a positional bitmap shorter than the FK parent).
    DomainMismatch {
        /// Artifact kind.
        kind: ArtifactKind,
        /// Domain table the artifact is declared over.
        table: String,
        /// Rows the consumer's domain requires.
        expected_rows: usize,
        /// Rows the artifact actually covers.
        found_rows: usize,
    },
    /// A tile/morsel-scoped artifact escapes its operator (the PR 1
    /// determinism contract: masks and selection vectors never cross
    /// tile/morsel boundaries).
    ScopeViolation {
        /// Artifact kind.
        kind: ArtifactKind,
        /// Scope the artifact was declared with.
        scope: Scope,
    },
    /// A probe imports through a foreign key the catalog does not declare.
    MissingFk {
        /// Child (probe-side) table.
        child: String,
        /// FK column on the child.
        fk_col: String,
        /// Parent (build-side) table.
        parent: String,
    },
    /// The loop the executor dispatches reads an attribute stream otherwise
    /// than the cost model assumed when pricing the strategy.
    SignatureMismatch {
        /// Operator name.
        op: String,
        /// Which attribute stream disagreed (predicate, aggregate input,
        /// group key, or structure).
        attribute: String,
        /// Pattern the cost model priced.
        modelled: String,
        /// Pattern the dispatched loop reads.
        runs: String,
    },
    /// The plan does not carry the cost term that priced the chosen strategy.
    CostTermMismatch {
        /// Operator name.
        op: String,
        /// Strategy the plan committed to.
        strategy: String,
        /// Cost term the verifier expected to find.
        expected_term: String,
    },
    /// An allocation site reachable from the plan does not charge the memory
    /// gauge, or a heap-materialized artifact has no covering site.
    UnchargedAllocation {
        /// Operator name.
        op: String,
        /// Allocation site (or artifact) lacking a gauge charge.
        site: String,
    },
}

impl fmt::Display for VerifyErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyErrorKind::UnknownColumn { table, column } => {
                write!(f, "unknown column {table}.{column}")
            }
            VerifyErrorKind::TypeMismatch { table, column, context } => {
                write!(f, "column {table}.{column} is not valid as {context}")
            }
            VerifyErrorKind::NonDictPredicate { table, column } => {
                write!(f, "dictionary predicate on non-dictionary column {table}.{column}")
            }
            VerifyErrorKind::UnboundParam { ordinal } => {
                write!(f, "parameter ${} is unbound", ordinal.wrapping_add(1))
            }
            VerifyErrorKind::ConsumedBeforeProduced { kind, table } => {
                write!(f, "{kind} over {table} consumed before produced")
            }
            VerifyErrorKind::DomainMismatch { kind, table, expected_rows, found_rows } => write!(
                f,
                "{kind} over {table} covers {found_rows} rows but its domain requires {expected_rows}"
            ),
            VerifyErrorKind::ScopeViolation { kind, scope } => {
                write!(f, "{scope}-scoped {kind} crosses its operator boundary")
            }
            VerifyErrorKind::MissingFk { child, fk_col, parent } => {
                write!(f, "no foreign key {child}.{fk_col} -> {parent} in catalog")
            }
            VerifyErrorKind::SignatureMismatch { op, attribute, modelled, runs } => write!(
                f,
                "{op}: {attribute} access priced {modelled} but the dispatched loop reads it {runs}"
            ),
            VerifyErrorKind::CostTermMismatch { op, strategy, expected_term } => write!(
                f,
                "{op}: strategy {strategy} priced by missing cost term \"{expected_term}\""
            ),
            VerifyErrorKind::UnchargedAllocation { op, site } => {
                write!(f, "{op}: allocation site \"{site}\" does not charge the memory gauge")
            }
        }
    }
}

/// Summary of a successful verification run, suitable for `EXPLAIN VERIFY`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Level the program was verified at.
    pub level: VerifyLevel,
    /// Operators examined.
    pub ops: usize,
    /// Expressions type-checked by pass 1.
    pub exprs: usize,
    /// Artifacts whose domains pass 2 validated.
    pub artifacts: usize,
    /// Operators whose dispatched loop pass 3 checked against the priced
    /// strategy (0 below `Full`).
    pub signatures: usize,
    /// Allocation sites pass 4 confirmed gauge-charged (0 below `Full`).
    pub allocs: usize,
    /// Human-readable per-pass summary lines.
    pub lines: Vec<String>,
}

/// Verify `program` at `level`.
///
/// Returns a [`VerifyReport`] on success or the first [`VerifyError`]
/// encountered, in pass order. At [`VerifyLevel::Off`] nothing is checked and
/// an empty report is returned.
pub fn verify(program: &Program, level: VerifyLevel) -> Result<VerifyReport, VerifyError> {
    let mut report = VerifyReport {
        level,
        ops: program.ops.len(),
        exprs: 0,
        artifacts: 0,
        signatures: 0,
        allocs: 0,
        lines: Vec::new(),
    };
    if level == VerifyLevel::Off {
        report.ops = 0;
        return Ok(report);
    }
    let schema = passes::check_schema(program)?;
    report.exprs = schema.exprs;
    report.lines.push(format!(
        "pass 1 schema: {} expr(s), {} column ref(s) sound across {} table(s)",
        schema.exprs,
        schema.column_refs,
        program.tables.len()
    ));
    let domains = passes::check_domains(program)?;
    report.artifacts = domains.artifacts;
    report.lines.push(format!(
        "pass 2 domains: {} artifact(s) produced-before-consumed, {} cross-op import(s) aligned",
        domains.artifacts, domains.imports
    ));
    if level == VerifyLevel::Full {
        let sigs = passes::check_signatures(program)?;
        report.signatures = sigs.checked;
        report.lines.push(format!(
            "pass 3 signatures: {} dispatched loop(s) match their priced strategy + cost terms",
            sigs.checked
        ));
        let res = passes::check_resources(program)?;
        report.allocs = res.sites;
        report.lines.push(format!(
            "pass 4 resources: {}/{} allocation site(s) gauge-charged, {} artifact(s) covered",
            res.sites, res.sites, res.covered_artifacts
        ));
    }
    Ok(report)
}
