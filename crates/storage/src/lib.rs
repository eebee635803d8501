//! # swole-storage — column-oriented storage substrate
//!
//! In-memory, column-oriented storage used by every other crate in the
//! SWOLE reproduction. It mirrors the storage decisions stated in the
//! paper's evaluation setup (§ IV):
//!
//! * **dictionary encoding** for low-cardinality string columns
//!   ([`DictColumn`]),
//! * **null suppression** (leading-zero suppression) for integer columns:
//!   [`Table::add_column`], the only way a column enters a table, stores
//!   every signed integer column at the narrowest of `i8`/`i16`/`i32`/`i64`
//!   that holds its [min, max], so a column built as `I32` may be read back
//!   as `I8`,
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
