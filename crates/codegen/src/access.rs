//! Access-pattern signatures derived from the composed kernel specs.
//!
//! SWOLE's claim (PAPER.md §III) is that strategy choice is really a choice
//! of *memory access pattern* per attribute stream: sequential scans,
//! position gathers, or conditional (selection-dependent) reads. The
//! emitters in this crate make those patterns visible as C text; this module
//! makes them *queryable*, so the static verifier (`swole-verify`) can
//! cross-check an operator's declared pattern against the kernel that will
//! actually run.
//!
//! Each `*_signature` function is the single source of truth for "what does
//! this strategy's composed kernel do per attribute", and the unit tests
//! below pin every signature to the emitted C it summarizes (e.g. value
//! masking derives a *sequential* aggregate input because the emitted loop
//! is `sum += (a[i+j]) * cmp[j]` — no branch, no indirection).

use std::fmt;

use swole_cost::{AggStrategy, BitmapBuild, GroupJoinStrategy, SemiJoinStrategy};

/// How a kernel touches one attribute stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Every position in order: `a[i+j]` under a dense loop.
    Sequential,
    /// Data-dependent positions: `bitmap_get(bm, fk_index[i])`,
    /// `ht_find(ht, fk[i])`.
    Gather,
    /// Only selected positions, via branch or selection vector:
    /// `a[idx[j]]`, `if (...) sum += a[i]`.
    Conditional,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Access::Sequential => "sequential",
            Access::Gather => "gather",
            Access::Conditional => "conditional",
        };
        f.write_str(s)
    }
}

/// Per-operator access signature: one [`Access`] per attribute stream the
/// composed kernel reads or writes, `None` where the stream does not exist
/// for the shape (e.g. no group key in a scalar aggregate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSig {
    /// Predicate input columns.
    pub predicate: Option<Access>,
    /// Aggregate input columns.
    pub agg_input: Option<Access>,
    /// Group-key column.
    pub group_key: Option<Access>,
    /// Auxiliary structure (hash table, bitmap, aggregate table) accesses.
    pub structure: Option<Access>,
}

/// Signature of a scan-aggregate under `strategy`.
///
/// Scalar key masking has no key to mask, so the engine executes it on the
/// hybrid path; its signature is the hybrid one.
#[must_use]
pub fn agg_signature(strategy: AggStrategy, grouped: bool) -> AccessSig {
    match (strategy, grouped) {
        // emit_hybrid: sequential `cmp[j] = pred` prepass, then
        // `sum += a[idx[j]]` — aggregate inputs read through the selection
        // vector (conditional). Grouped hybrid gathers the key the same way.
        (AggStrategy::Hybrid, g) | (AggStrategy::KeyMasking, g @ false) => AccessSig {
            predicate: Some(Access::Sequential),
            agg_input: Some(Access::Conditional),
            group_key: if g { Some(Access::Conditional) } else { None },
            structure: None,
        },
        // emit_value_masking / emit_groupby_value_masking: every lane read in
        // order, `sum += (a[i+j]) * cmp[j]` and `ht_lookup(ht, c[i+j])` — all
        // streams sequential (wasted lanes are the price the model charges).
        (AggStrategy::ValueMasking, g) => AccessSig {
            predicate: Some(Access::Sequential),
            agg_input: Some(Access::Sequential),
            group_key: if g { Some(Access::Sequential) } else { None },
            structure: None,
        },
        // emit_groupby_key_masking: `key[j] = (pred) ? c[i+j] : NULL_KEY`
        // then `e->sum += a[i+j]` — key and value both sequential; filtering
        // rides the key, not the accesses.
        (AggStrategy::KeyMasking, true) => AccessSig {
            predicate: Some(Access::Sequential),
            agg_input: Some(Access::Sequential),
            group_key: Some(Access::Sequential),
            structure: None,
        },
    }
}

/// Signature of a semijoin build under `strategy`.
#[must_use]
pub fn semijoin_build_signature(strategy: SemiJoinStrategy) -> AccessSig {
    AccessSig {
        predicate: Some(Access::Sequential),
        agg_input: None,
        group_key: None,
        structure: Some(match strategy {
            // emit_hash_semijoin build loop: `ht_insert(ht, pk[i])` — hashed
            // (random) placement.
            SemiJoinStrategy::Hash => Access::Gather,
            // emit_bitmap_semijoin build loop: `bitmap_assign(bm, i, pred)` —
            // position i in order, branch-free.
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional) => Access::Sequential,
            // Selection-vector build sets only qualifying bits.
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector) => Access::Conditional,
        }),
    }
}

/// Signature of a semijoin probe under `strategy`.
///
/// `probe_masked` is the predicate-pullup variant: the membership bit is
/// multiplied into the aggregate (`sum += a[i] * bitmap_get(...)`), keeping
/// the aggregate input sequential; the unmasked variant compacts through a
/// selection vector first, making it conditional. Either way the membership
/// structure itself is a gather through the FK positions.
#[must_use]
pub fn semijoin_probe_signature(strategy: SemiJoinStrategy, probe_masked: bool) -> AccessSig {
    let _ = strategy; // hash table and bitmap probes are both gathers
    AccessSig {
        predicate: Some(Access::Sequential),
        agg_input: Some(if probe_masked {
            Access::Sequential
        } else {
            Access::Conditional
        }),
        group_key: None,
        structure: Some(Access::Gather),
    }
}

/// Signature of a groupjoin probe under `strategy`.
#[must_use]
pub fn groupjoin_probe_signature(strategy: GroupJoinStrategy) -> AccessSig {
    AccessSig {
        predicate: None,
        agg_input: Some(match strategy {
            // emit_groupjoin: `if ((e = ht_find(...))) e->sum += a[i]` — only
            // rows whose parent qualified contribute.
            GroupJoinStrategy::GroupJoin => Access::Conditional,
            // emit_eager_aggregation: `e->sum += a[i]` for every row, with
            // non-qualifying groups deleted afterwards.
            GroupJoinStrategy::EagerAggregation => Access::Sequential,
        }),
        group_key: None,
        // Both variants gather the per-group entry through the FK value.
        structure: Some(Access::Gather),
    }
}

/// Signature of a window operator under `strategy`.
///
/// The filter prepass is a sequential mask evaluation either way, and the
/// partition/order keys are gathered through the sorted selection vector.
/// The strategies differ on the frame inputs: the sequential frame scan
/// reads each sorted value exactly once (`state += v[pos]` as `pos`
/// advances), re-evaluation re-reads frame rows conditionally for every
/// output row (`for f in frame { acc += v[f] }`).
#[must_use]
pub fn window_signature(strategy: swole_cost::WindowStrategy) -> AccessSig {
    AccessSig {
        predicate: Some(Access::Sequential),
        agg_input: Some(match strategy {
            swole_cost::WindowStrategy::SequentialFrameScan => Access::Sequential,
            swole_cost::WindowStrategy::ConditionalReeval => Access::Conditional,
        }),
        group_key: Some(Access::Conditional),
        structure: None,
    }
}

/// Signature of the ORDER BY post-operator: result rows are re-read through
/// the sort permutation (conditional, order-dependent positions).
#[must_use]
pub fn sort_signature() -> AccessSig {
    AccessSig {
        predicate: None,
        agg_input: None,
        group_key: Some(Access::Conditional),
        structure: None,
    }
}

/// Signature of the LIMIT post-operator: a sequential prefix truncation.
#[must_use]
pub fn limit_signature() -> AccessSig {
    AccessSig {
        predicate: None,
        agg_input: None,
        group_key: None,
        structure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{GroupByAggSpec, GroupJoinSpec, ScalarAggSpec, SemiJoinSpec};
    use crate::{
        emit_bitmap_semijoin, emit_eager_aggregation, emit_groupby_key_masking,
        emit_groupby_value_masking, emit_groupjoin, emit_hash_semijoin, emit_hybrid,
        emit_value_masking,
    };

    // Each test pins a signature to the emitted C it summarizes, so a change
    // to either the emitter or the signature table breaks loudly.

    #[test]
    fn hybrid_signature_matches_emitted_c() {
        let sig = agg_signature(AggStrategy::Hybrid, false);
        let c = emit_hybrid(&ScalarAggSpec::paper_example());
        assert!(
            c.contains("cmp[j] = x[i+j] < 13;"),
            "sequential predicate prepass"
        );
        assert_eq!(sig.predicate, Some(Access::Sequential));
        assert!(
            c.contains("sum += a[idx[j]];"),
            "selection-vector indirection"
        );
        assert_eq!(sig.agg_input, Some(Access::Conditional));
        assert_eq!(sig.group_key, None);
    }

    #[test]
    fn value_masking_signature_matches_emitted_c() {
        let sig = agg_signature(AggStrategy::ValueMasking, false);
        let c = emit_value_masking(&ScalarAggSpec::paper_example());
        assert!(
            c.contains("sum += (a[i+j]) * cmp[j];"),
            "masked sequential aggregate"
        );
        assert!(!c.contains("idx"), "no selection vector");
        assert_eq!(sig.agg_input, Some(Access::Sequential));
        let g = emit_groupby_value_masking(&GroupByAggSpec::paper_example());
        assert!(g.contains("ht_lookup(ht, c[i+j])"), "key read sequentially");
        assert_eq!(
            agg_signature(AggStrategy::ValueMasking, true).group_key,
            Some(Access::Sequential)
        );
    }

    #[test]
    fn key_masking_signature_matches_emitted_c() {
        let sig = agg_signature(AggStrategy::KeyMasking, true);
        let c = emit_groupby_key_masking(&GroupByAggSpec::paper_example());
        assert!(c.contains("key[j] = (x[i+j] < 13) ? c[i+j] : NULL_KEY;"));
        assert!(
            c.contains("e->sum += a[i+j];"),
            "value stays unmasked and sequential"
        );
        assert_eq!(sig.agg_input, Some(Access::Sequential));
        assert_eq!(sig.group_key, Some(Access::Sequential));
        // Scalar key masking has no key to mask: the engine runs the hybrid
        // kernel, so the signatures must agree.
        assert_eq!(
            agg_signature(AggStrategy::KeyMasking, false),
            agg_signature(AggStrategy::Hybrid, false)
        );
    }

    #[test]
    fn semijoin_signatures_match_emitted_c() {
        let c = emit_bitmap_semijoin(&SemiJoinSpec::paper_example());
        assert!(
            c.contains("bitmap_assign(bm, i, x[i] < 13);"),
            "sequential build"
        );
        assert_eq!(
            semijoin_build_signature(SemiJoinStrategy::PositionalBitmap(
                BitmapBuild::Unconditional
            ))
            .structure,
            Some(Access::Sequential)
        );
        assert!(
            c.contains("sum += a[i] * bitmap_get(bm, fk_index[i]);"),
            "masked probe: sequential aggregate, gathered bitmap"
        );
        let masked = semijoin_probe_signature(
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
            true,
        );
        assert_eq!(masked.agg_input, Some(Access::Sequential));
        assert_eq!(masked.structure, Some(Access::Gather));

        let h = emit_hash_semijoin(&SemiJoinSpec::paper_example());
        assert!(
            h.contains("ht_insert(ht, pk[i]);"),
            "hashed build placement"
        );
        assert_eq!(
            semijoin_build_signature(SemiJoinStrategy::Hash).structure,
            Some(Access::Gather)
        );
        assert!(h.contains("if (ht_find(ht, fk[i]))"), "branching probe");
        assert_eq!(
            semijoin_probe_signature(SemiJoinStrategy::Hash, false).agg_input,
            Some(Access::Conditional)
        );
    }

    #[test]
    fn groupjoin_signatures_match_emitted_c() {
        let g = emit_groupjoin(&GroupJoinSpec::paper_example());
        assert!(
            g.contains("if ((e = ht_find(ht, fk[i])))"),
            "conditional aggregate"
        );
        assert_eq!(
            groupjoin_probe_signature(GroupJoinStrategy::GroupJoin).agg_input,
            Some(Access::Conditional)
        );
        let e = emit_eager_aggregation(&GroupJoinSpec::paper_example());
        assert!(
            e.contains("e = ht_lookup(ht, fk[i]);"),
            "every row aggregated"
        );
        assert_eq!(
            groupjoin_probe_signature(GroupJoinStrategy::EagerAggregation).agg_input,
            Some(Access::Sequential)
        );
    }
}
