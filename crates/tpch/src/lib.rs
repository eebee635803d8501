//! # swole-tpch — TPC-H substrate and the paper's eight queries (§ IV-A)
//!
//! A from-scratch TPC-H workload: a dbgen-equivalent generator
//! ([`generate`]) producing the seven tables the evaluated queries touch,
//! with the specification's value distributions so the selectivities the
//! paper quotes hold (Q1 ≈ 98 %, Q4 ≈ 4 %, Q6 ≈ 2 %, Q13 ≈ 98 %,
//! Q14 ≈ 1 %...), and hand-coded implementations of
//! **Q1, Q3, Q4, Q5, Q6, Q13, Q14, Q19** — the subset used by the ROF paper
//! \[5\] and adopted by this one — in each of the three strategies the paper
//! compares:
//!
//! * `datacentric` — HyPer-style single-loop branch-per-tuple code;
//! * `hybrid` — Tupleware-style prepass + selection vectors (TILE = 1024);
//! * `swole` — the access-aware plan the paper describes per query
//!   (§ IV-A): key masking (Q1), positional bitmap joins (Q3, Q4, Q5, Q19),
//!   access merging + value masking (Q6), value masking (Q13), and the
//!   hybrid fallback where the cost model declines (Q14).
//!
//! Hand-coding each strategy mirrors the paper's own methodology ("we hand
//! coded each strategy in C to eliminate any overheads from tangential
//! implementation differences") — all three share the same storage, hash
//! tables and bitmaps from the substrate crates.
//!
//! Scale is configurable: [`generate`]`(sf, seed)` with `sf = 1.0` ≈ 6 M
//! lineitems. Tests run at tiny scale; `SWOLE_SF` scales the benches.

#![warn(missing_docs)]

pub mod catalog;
mod data;
mod dates;
mod gen;
pub mod queries;

pub use data::{Customer, Lineitem, Nation, Orders, Part, Region, Supplier, TpchDb};
pub use dates::*;
pub use gen::generate;
