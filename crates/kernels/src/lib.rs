//! # swole-kernels — the generated-code loop bodies
//!
//! This crate contains the loop bodies each code-generation strategy emits,
//! as tight monomorphized Rust functions. Composition of these kernels into
//! a per-query pipeline *is* the "code generation" step of this
//! reproduction (see DESIGN.md § 2 for the substitution rationale): Rust
//! generics + inlining give the same specialised machine loops the paper
//! obtains by emitting C, while `swole-plan`'s `EXPLAIN CODE` prints the
//! loop each stage runs as the equivalent C text for inspection.
//!
//! Kernel families and the strategies they realise:
//!
//! | module       | strategy / technique                                      |
//! |--------------|-----------------------------------------------------------|
//! | [`predicate`] | prepass predicate evaluation (hybrid/ROF/SWOLE, Fig. 1)  |
//! | [`selvec`]    | selection-vector construction, branch & no-branch \[31\] |
//! | [`agg`]       | aggregation: data-centric, hybrid gather, **value masking** (§ III-A), **access merging** (§ III-C), ROF |
//! | [`groupby`]   | group-by aggregation: data-centric, hybrid, **value masking**, **key masking** (§ III-B) |
//! | [`join`]      | joins: hash (semi)join baselines, **positional-bitmap semijoin** (§ III-D), groupjoin, **eager aggregation** (§ III-E) |
//!
//! Every kernel that operates on a tile takes plain slices so the compiler
//! sees exact trip counts and can auto-vectorize the branch-free loops; the
//! tile length is [`TILE`] = 1024 values, matching the paper's vector size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::arithmetic_side_effects)]

pub mod agg;
pub mod counters;
pub mod groupby;
pub mod join;
pub mod predicate;
pub mod selvec;

pub use counters::AccessCounters;

/// Number of tuples processed per tile ("we use a vector size of 1024, as
/// suggested by other recent studies" — paper § IV).
pub const TILE: usize = 1024;

/// Iterate over `(start, len)` tile bounds covering `0..n` in [`TILE`]-sized
/// chunks (the final tile may be shorter — the `len = R - i < TILE ? ...`
/// pattern in every pseudocode fragment of the paper).
pub fn tiles(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).step_by(TILE).map(move |start| {
        let len = TILE.min(n.saturating_sub(start));
        (start, len)
    })
}

/// Default rows per morsel: 64 tiles. Large enough that claiming a morsel
/// (one atomic increment) is noise, small enough that a skewed tail still
/// load-balances across workers.
pub const MORSEL_ROWS: usize = 64 * TILE;

/// Iterate over `(start, len)` morsel bounds covering `0..n`.
///
/// Every morsel length is a multiple of [`TILE`] except possibly the last,
/// so tile-local stack buffers (`[0u8; TILE]`) keep working inside a morsel
/// and morsel boundaries stay 64-bit-aligned for direct bitmap-word writes
/// (`TILE` is a multiple of 64). `morsel_rows` is rounded up to a whole
/// number of tiles.
pub fn morsels(n: usize, morsel_rows: usize) -> impl Iterator<Item = (usize, usize)> {
    let step = morsel_rows.div_ceil(TILE).max(1).saturating_mul(TILE);
    (0..n).step_by(step).map(move |start| {
        let len = step.min(n.saturating_sub(start));
        (start, len)
    })
}

/// Iterate over `(start, len)` tile bounds covering the morsel
/// `start..start + len` — [`tiles`] shifted to a sub-range, for workers
/// that process one claimed morsel at a time.
pub fn tiles_in(start: usize, len: usize) -> impl Iterator<Item = (usize, usize)> {
    tiles(len).map(move |(s, l)| (start.saturating_add(s), l))
}

/// Integer types a column kernel can widen to `i64` accumulators.
///
/// The paper stores all aggregates as 64-bit integers without per-row
/// overflow checks; kernels widen on read.
pub trait AsI64: Copy {
    /// Widen to `i64`.
    fn widen(self) -> i64;
}

macro_rules! impl_as_i64 {
    ($($t:ty),*) => {$(
        impl AsI64 for $t {
            #[inline(always)]
            fn widen(self) -> i64 {
                self as i64
            }
        }
    )*};
}
impl_as_i64!(i8, i16, i32, i64, u8, u16, u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_exactly() {
        let mut covered = 0usize;
        let mut last_end = 0usize;
        for (start, len) in tiles(2500) {
            assert_eq!(start, last_end);
            assert!(len <= TILE && len > 0);
            covered += len;
            last_end = start + len;
        }
        assert_eq!(covered, 2500);
    }

    #[test]
    fn tiles_exact_multiple() {
        let all: Vec<_> = tiles(TILE * 3).collect();
        assert_eq!(all, vec![(0, TILE), (TILE, TILE), (2 * TILE, TILE)]);
    }

    #[test]
    fn tiles_empty_and_tiny() {
        assert_eq!(tiles(0).count(), 0);
        assert_eq!(tiles(1).collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn morsels_cover_and_tile_align() {
        for n in [0, 1, TILE - 1, TILE, MORSEL_ROWS, MORSEL_ROWS * 3 + 17] {
            let mut covered = 0usize;
            let mut last_end = 0usize;
            for (start, len) in morsels(n, MORSEL_ROWS) {
                assert_eq!(start, last_end);
                assert_eq!(start % TILE, 0, "morsel starts tile-aligned");
                assert!(len > 0);
                covered += len;
                last_end = start + len;
            }
            assert_eq!(covered, n, "n={n}");
        }
        // Odd morsel_rows rounds up to whole tiles.
        let bounds: Vec<_> = morsels(TILE * 4, TILE + 1).collect();
        assert_eq!(bounds, vec![(0, 2 * TILE), (2 * TILE, 2 * TILE)]);
    }

    #[test]
    fn tiles_in_matches_shifted_tiles() {
        let inner: Vec<_> = tiles_in(3 * TILE, 2 * TILE + 5).collect();
        assert_eq!(
            inner,
            vec![(3 * TILE, TILE), (4 * TILE, TILE), (5 * TILE, 5)]
        );
        assert_eq!(
            tiles_in(0, 2500).collect::<Vec<_>>(),
            tiles(2500).collect::<Vec<_>>()
        );
    }

    #[test]
    fn widen_preserves_values() {
        assert_eq!((-1i8).widen(), -1);
        assert_eq!(u32::MAX.widen(), u32::MAX as i64);
        assert_eq!((1i64 << 40).widen(), 1 << 40);
    }
}
