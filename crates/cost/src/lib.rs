//! # swole-cost — access-aware cost models (paper sections III-A/B/E, Fig. 2)
//!
//! SWOLE's techniques are *not* dominant strategies; each comes with a cost
//! model deciding when the improved access pattern outweighs the wasted
//! work. This crate implements:
//!
//! * [`CostParams`] — the primitive access costs (`read_seq`, `read_cond`,
//!   `comp`, `ht_*`) in CPU cycles per tuple, with hash-structure costs
//!   priced against the cache hierarchy (Manegold/Pirk-style hierarchical
//!   memory cost modelling, refs \[6\], \[7\] of the paper);
//! * [`model`] — the five formulas exactly as printed in the paper
//!   (Hybrid, VM, VM-groupby, KM, Groupjoin, EA);
//! * [`choose`] — the strategy chooser realising Fig. 2's
//!   technique/operator/heuristic matrix, returning explainable decisions;
//! * [`comp`] — "introspection" (section III-A, ref \[4\]): estimate the
//!   `comp` term of an aggregation from its operator mix;
//! * [`calibrate`] — measure the primitive costs on the host so decisions
//!   reflect the machine actually running the query.

#![warn(missing_docs)]

pub mod calibrate;
pub mod choose;
pub mod comp;
pub mod model;
pub mod observed;
mod params;

pub use choose::{
    choose_join_order, join_order_cost, AggChoice, AggProfile, AggStrategy, BitmapBuild,
    GroupJoinChoice, GroupJoinProfile, GroupJoinStrategy, GroupTableCost, JoinEdgeProfile,
    JoinGraphProfile, JoinOrderChoice, JoinOrderMethod, SemiJoinChoice, SemiJoinProfile,
    SemiJoinStrategy, WindowChoice, WindowProfile, WindowStrategy, JOIN_DP_LIMIT,
};
pub use params::CostParams;
