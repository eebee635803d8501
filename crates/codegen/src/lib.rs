//! # swole-codegen — C source emitters for every strategy
//!
//! The paper is about *generated code*; its figures show the C each
//! strategy produces. This crate emits that C text for the canonical query
//! shapes so the generated-code structure is inspectable, diffable and
//! golden-tested:
//!
//! * Fig. 1 — data-centric, hybrid, ROF for `select sum(a) from R where x < 13`
//! * Fig. 3 — value masking for the same query
//! * Fig. 4 — value masking and key masking for the group-by variant
//! * Fig. 5 — value masking vs access merging for repeated references
//! * section III-D — positional-bitmap semijoin (before/after rewrite)
//! * section III-E — groupjoin vs eager aggregation (before/after rewrite)
//!
//! The crate holds the emitters only. The execution engine does not compile
//! this text (see DESIGN.md section 2: the kernels in `swole-kernels` are the
//! compiled form), and the access signatures the verifier checks are read
//! off the loop each stage dispatches, in `swole-plan`; the emitters exist
//! so the reproduction keeps the paper's artifact — code — first-class.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod emit;
mod spec;

pub use emit::{
    emit_access_merging, emit_bitmap_semijoin, emit_datacentric, emit_eager_aggregation,
    emit_groupby_key_masking, emit_groupby_value_masking, emit_groupjoin, emit_hash_semijoin,
    emit_hybrid, emit_rof, emit_value_masking,
};
pub use spec::{CmpOp, GroupByAggSpec, GroupJoinSpec, ScalarAggSpec, SemiJoinSpec};
