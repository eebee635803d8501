//! # swole-ht — hash tables built for access-aware query execution
//!
//! From-scratch open-addressing hash tables with exactly the features the
//! SWOLE techniques (paper § III) need and nothing else:
//!
//! * [`AggTable`] — group-by aggregation states keyed by `i64`, with
//!   * a reserved **throwaway entry** addressed by [`NULL_KEY`] so the key
//!     masking technique (§ III-B) can route filtered tuples to a single
//!     always-cached slot,
//!   * per-entry **valid flags** so the value masking technique (§ III-B)
//!     can "set a flag during insertion to differentiate between masked
//!     entries and actual 0 values",
//!   * **deletion** (backward-shift or tombstone), which the hand-coded
//!     eager aggregation (§ III-E) uses to remove non-qualifying aggregates
//!     after the fact — the engine instead leaves them out of
//!     [`GroupTable::emit`];
//! * [`DenseAggTable`] — the same contract ([`GroupTable`]) as a flat array
//!   over a key domain the catalog knows exactly, with no hashing at all;
//! * [`KeySet`] — a membership set used by the hash-based semijoin
//!   baselines that positional bitmaps replace.
//!
//! The hash tables use power-of-two capacities, linear probing, and a
//! Fibonacci-multiplicative hash ([`hash_i64`]) — the same cheap integer
//! hashing a hand-tuned C implementation would use. Uniformly distributed
//! keys (the paper's stated worst case for caching) therefore spread evenly,
//! and a lookup in a table larger than cache is almost certainly a miss,
//! which is precisely the regime the cost models reason about.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

mod agg_table;
mod dense;
mod group_table;
mod hash;
mod key_set;

pub use agg_table::{AggTable, DeletePolicy, HtCounters, MergeOp, NULL_KEY};
pub use dense::DenseAggTable;
pub use group_table::GroupTable;
pub use hash::hash_i64;
pub use key_set::KeySet;
