//! # swole-runtime — the shared execution runtime
//!
//! The engine-independent half of the executor: everything about *how*
//! morsels get claimed, charged, cancelled, and scheduled, with no
//! knowledge of plans, tables, or SQL. `swole-plan` builds stage closures
//! (scan + fold bodies over tile-aligned morsels) and hands them to an
//! [`Executor`]; this crate decides which threads run them.
//!
//! Two executors share one worker contract:
//!
//! - [`Executor::Scoped`] — the original per-query model: `threads` scoped
//!   workers are spawned for the stage and join before it returns. Zero
//!   cross-query state; `threads == 1` runs inline on the caller.
//! - [`Executor::Pool`] — a fixed [`WorkerPool`] multiplexing morsels from
//!   N concurrent queries. Each stage keeps its own `MorselQueue` (so
//!   tile partitioning — and therefore results — are bit-identical to solo
//!   execution); pool workers round-robin across registered stages by
//!   [`Priority`] class, claiming one morsel per visit. The submitting
//!   thread participates too, so a query always makes progress even when
//!   every pool worker is busy elsewhere.
//!
//! `MorselQueue` is internal; stages only exist behind the executors.
//!
//! Around the executors sit the three resource-control layers a
//! multi-query server needs:
//!
//! - [`MemGauge`] / [`GlobalMemoryPool`] — hierarchical memory accounting:
//!   per-query gauges draw from one global byte budget under a
//!   [`MemoryPolicy`] (Greedy or FairShare), failing fast with a typed
//!   [`RuntimeError::BudgetExceeded`] instead of OOM-killing the process.
//! - [`AdmissionController`] — a bounded wait queue in front of execution
//!   with priority classes and deadline-aware rejection.
//! - [`ExecCtx`] / [`ExecHandle`] — per-query cancellation, deadlines, and
//!   progress, observed cooperatively at morsel boundaries.
//!
//! The [`faults`] module hosts the process-global fault-injection harness
//! the hardening tests use to force panics, allocation failures, and clock
//! skew through all of the above.

#![warn(missing_docs)]

pub mod admission;
mod ctx;
mod error;
pub mod faults;
mod gauge;
mod pool;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionError, AdmissionPermit, Priority,
};
pub use ctx::{charge_or_panic, panic_payload_error, CancelState, ExecCtx, ExecHandle};
pub use error::RuntimeError;
pub use gauge::{GlobalMemoryPool, MemGauge, MemoryPolicy, MemoryPoolStats};
pub use pool::{Executor, WorkerPool};
