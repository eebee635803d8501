//! Engine errors.

use std::fmt;

use swole_runtime::{AdmissionError, RuntimeError};

/// Errors surfaced by planning or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A referenced table does not exist in the catalog.
    UnknownTable(String),
    /// A referenced column does not exist in its table.
    UnknownColumn {
        /// Table searched.
        table: String,
        /// Missing column.
        column: String,
    },
    /// The plan shape is not one the access-aware planner supports.
    Unsupported(String),
    /// An expression is invalid in its context (e.g. LIKE on a non-dictionary
    /// column).
    InvalidExpr(String),
    /// A join was requested without the foreign-key index positional
    /// bitmaps require and without a hash fallback key.
    MissingFkIndex {
        /// Child table.
        child: String,
        /// FK column.
        fk_column: String,
    },
    /// A scalar accessor was used on a result that does not have exactly
    /// one row.
    NotScalar {
        /// Number of rows the result actually has.
        rows: usize,
    },
    /// A result-column accessor named a column the result does not have.
    UnknownResultColumn(String),
    /// A positional result accessor was given an index outside the result
    /// (or a malformed result is narrower than its column list claims).
    IndexOutOfRange {
        /// Which axis the index ran past: `"row"` or `"column"`.
        axis: &'static str,
        /// The out-of-range index the caller passed.
        index: usize,
        /// The number of valid positions on that axis.
        len: usize,
    },
    /// A morsel worker panicked (or the executor hit an unexpected state).
    /// The panic is contained to the query: sibling workers are cancelled
    /// at their next morsel boundary and the process keeps running.
    ExecutionFailed(String),
    /// The query was cancelled through [`crate::ExecHandle::cancel`].
    Cancelled {
        /// Morsels fully processed before the cancellation took effect.
        morsels_done: usize,
        /// Morsels the execution had scheduled in total.
        morsels_total: usize,
    },
    /// The session deadline ([`crate::EngineBuilder::deadline`]) elapsed
    /// mid-execution.
    DeadlineExceeded {
        /// Morsels fully processed before the deadline tripped.
        morsels_done: usize,
        /// Morsels the execution had scheduled in total.
        morsels_total: usize,
    },
    /// A memory charge would push the query past its certified peak, the
    /// limit of its gauge — a bounds-pass soundness bug — or an armed fault
    /// failed it.
    BudgetExceeded {
        /// Bytes the failing allocation site asked for.
        requested: usize,
        /// Bytes already charged when the request was made.
        used: usize,
        /// The query's limit in bytes (0 for an injected allocation
        /// failure).
        budget: usize,
    },
    /// The query stopped making progress: no morsel completed within the
    /// configured watchdog window ([`crate::EngineBuilder::stall_window`]),
    /// so the engine cancelled it rather than let it wedge an execution
    /// slot. Not retryable — a stalled plan would stall again.
    Stalled {
        /// Morsels fully processed before the stall was detected.
        morsels_done: usize,
        /// Morsels the execution had scheduled in total.
        morsels_total: usize,
        /// The watchdog window that elapsed without progress, in ms.
        window_ms: u64,
    },
    /// The engine is shutting down: either admission refused the query at
    /// the front door, or an in-flight query was hard-aborted after the
    /// drain deadline passed (see [`crate::Engine::shutdown`]). Retry
    /// against a different (or restarted) engine, not this one.
    Shutdown {
        /// Morsels fully processed before the abort took effect (0 when
        /// rejected at admission).
        morsels_done: usize,
        /// Morsels the execution had scheduled in total.
        morsels_total: usize,
    },
    /// Admission control rejected the query before execution started: all
    /// execution slots were busy and the bounded wait queue was full, or
    /// the query's deadline expired before a slot freed up (see
    /// [`crate::EngineBuilder::admission`]). Not retryable — retrying
    /// through the fallback would bypass the very limit that rejected it.
    Admission(AdmissionError),
    /// Parameter binding failed: wrong number of values for a prepared
    /// statement's placeholders, a value of a type the slot cannot accept
    /// (e.g. a string in arithmetic), or executing a plan that still
    /// contains unbound placeholders.
    BindMismatch(String),
    /// SQL text handed to [`crate::Engine::prepare_sql`] failed to parse.
    Sql {
        /// What the parser objected to.
        message: String,
        /// Byte offset into the SQL text.
        position: usize,
    },
    /// The composed physical plan failed static verification
    /// ([`crate::EngineBuilder::verify`]). Not retryable: the plan itself is
    /// ill-formed, so re-running it cannot help.
    Verification(swole_verify::VerifyError),
}

impl PlanError {
    /// `true` for runtime failures the engine may retry once under the
    /// data-centric fallback strategy (worker panics, budget exhaustion).
    /// Cancellation and deadline expiry are *not*
    /// retryable: the caller asked execution to stop. Neither are
    /// [`PlanError::Stalled`] (a stalled plan would stall again) or
    /// [`PlanError::Shutdown`] (the engine is going away).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PlanError::ExecutionFailed(_) | PlanError::BudgetExceeded { .. }
        )
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            PlanError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column} in table {table}")
            }
            PlanError::Unsupported(what) => write!(f, "unsupported plan shape: {what}"),
            PlanError::InvalidExpr(what) => write!(f, "invalid expression: {what}"),
            PlanError::MissingFkIndex { child, fk_column } => {
                write!(f, "no foreign-key index registered for {child}.{fk_column}")
            }
            PlanError::NotScalar { rows } => {
                write!(f, "result is not scalar: {rows} rows (expected exactly 1)")
            }
            PlanError::UnknownResultColumn(c) => {
                write!(f, "no column named {c} in the result")
            }
            PlanError::IndexOutOfRange { axis, index, len } => {
                write!(f, "{axis} index {index} out of range (result has {len})")
            }
            PlanError::ExecutionFailed(msg) => {
                write!(f, "execution failed: {msg}")
            }
            PlanError::Cancelled {
                morsels_done,
                morsels_total,
            } => write!(
                f,
                "query cancelled after {morsels_done}/{morsels_total} morsels"
            ),
            PlanError::DeadlineExceeded {
                morsels_done,
                morsels_total,
            } => write!(
                f,
                "deadline exceeded after {morsels_done}/{morsels_total} morsels"
            ),
            PlanError::Stalled {
                morsels_done,
                morsels_total,
                window_ms,
            } => write!(
                f,
                "query stalled: no morsel completed within {window_ms} ms \
                 ({morsels_done}/{morsels_total} morsels done)"
            ),
            PlanError::Shutdown {
                morsels_done,
                morsels_total,
            } => write!(
                f,
                "query aborted by engine shutdown after \
                 {morsels_done}/{morsels_total} morsels"
            ),
            PlanError::BudgetExceeded {
                requested,
                used,
                budget,
            } => write!(
                f,
                "memory budget exceeded: requested {requested} B with {used} B \
                 charged of a {budget} B budget"
            ),
            PlanError::Admission(err) => write!(f, "admission rejected: {err}"),
            PlanError::BindMismatch(what) => write!(f, "bind mismatch: {what}"),
            PlanError::Sql { message, position } => {
                write!(f, "sql error at {position}: {message}")
            }
            PlanError::Verification(err) => {
                write!(f, "plan verification failed: {err}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Lift a shared-runtime failure into the engine's error space. Worker
/// panics surface as [`PlanError::ExecutionFailed`]; everything else maps
/// onto its structurally identical variant.
impl From<RuntimeError> for PlanError {
    fn from(e: RuntimeError) -> PlanError {
        match e {
            RuntimeError::Cancelled {
                morsels_done,
                morsels_total,
            } => PlanError::Cancelled {
                morsels_done,
                morsels_total,
            },
            RuntimeError::DeadlineExceeded {
                morsels_done,
                morsels_total,
            } => PlanError::DeadlineExceeded {
                morsels_done,
                morsels_total,
            },
            RuntimeError::BudgetExceeded {
                requested,
                used,
                budget,
            } => PlanError::BudgetExceeded {
                requested,
                used,
                budget,
            },
            RuntimeError::Stalled {
                morsels_done,
                morsels_total,
                window_ms,
            } => PlanError::Stalled {
                morsels_done,
                morsels_total,
                window_ms,
            },
            RuntimeError::Shutdown {
                morsels_done,
                morsels_total,
            } => PlanError::Shutdown {
                morsels_done,
                morsels_total,
            },
            RuntimeError::Admission(err) => PlanError::Admission(err),
            RuntimeError::Panic(msg) => PlanError::ExecutionFailed(msg),
            RuntimeError::Stopped => {
                PlanError::ExecutionFailed("execution stopped by an earlier failure".into())
            }
        }
    }
}
