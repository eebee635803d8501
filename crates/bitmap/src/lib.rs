//! # swole-bitmap — positional bitmaps (paper § III-D)
//!
//! A positional bitmap replaces the build-side hash table of a FK
//! (semi)join: bit `i` records whether parent row `i` qualifies. Building is
//! a **sequential** write over the parent table (either unconditionally
//! assigning the predicate result per row, or setting bits through a
//! selection vector — the build-side variant is itself chosen by the value
//! masking cost model). Probing is a positional lookup using the offset from
//! the child table's foreign-key index.
//!
//! The paper notes that even for large tables the bitmap stays cache-sized
//! (100 M rows ≈ 12.5 MB) and that, should size matter, blocks of repeated
//! values can be compressed. [`CompressedBitmap`] implements that fill/literal
//! block compression so the size/probe-cost trade-off can be measured
//! (`ablations` bench).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

mod compressed;
mod dense;

pub use compressed::CompressedBitmap;
pub use dense::{Bits, PositionalBitmap};
