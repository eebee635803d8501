//! # swole-storage — column-oriented storage substrate
//!
//! In-memory, column-oriented storage used by every other crate in the
//! SWOLE reproduction. It mirrors the storage decisions stated in the
//! paper's evaluation setup (§ IV):
//!
//! * **dictionary encoding** for low-cardinality string columns
//!   ([`DictColumn`]),
//! * **null suppression** (leading-zero suppression) for low-cardinality
//!   integer columns — [`ColumnData::compress_i64`] picks the narrowest
//!   integer width that can represent the values,
//! * **fixed-point storage** for decimals ([`Decimal`]: values multiplied by
//!   a power of 10 and stored as integers),
//! * 64-bit integer aggregate states everywhere (no per-row overflow checks),
//! * **foreign keys as positions**: with dense parent keys a child's `U32`
//!   FK column holds its parents' row positions, so it is itself the index
//!   the paper's positional bitmaps (§ III-D) probe through — the engine
//!   validates it once at registration and copies nothing, which makes
//!   § III-D's "no additional overhead" literal. [`FkIndex`] is the
//!   hand-coded pipelines' owned copy of such a column.
//!
//! The crate is dependency-free and deliberately simple: data lives in plain
//! `Vec`s so the kernel crates can borrow raw slices and generate tight,
//! auto-vectorizable loops over them.

#![warn(missing_docs)]

mod column;
mod date;
mod decimal;
mod dict;
mod fk_index;
mod table;

pub use column::{ColumnData, DataType};
pub use date::Date;
pub use decimal::Decimal;
pub use dict::{like_match, DictColumn};
pub use fk_index::FkIndex;
pub use table::Table;
