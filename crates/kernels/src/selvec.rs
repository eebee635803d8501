//! Selection-vector construction kernels.
//!
//! The hybrid strategy's "second inner loop" (Fig. 1): convert a tile's
//! `cmp` mask into a selection vector of qualifying row offsets. Two
//! variants exist because (per Ross \[31\], cited in § II-A) the predicated
//! no-branch form avoids branch mispredictions at intermediate
//! selectivities while a branching form can win at the extremes — the
//! `ablations` bench measures the trade-off.

// Tile-loop kernels: index arithmetic is bounded by slice lengths
// (debug_assert'd) and accumulators follow the paper's convention of
// unchecked 64-bit adds (overflow is detected once per tile by the
// engine, not per lane; dev/test profiles carry overflow checks).
#![allow(clippy::arithmetic_side_effects)]

/// No-branch (predicated) construction: `idx[k] = j; k += cmp[j]`.
///
/// Replaces the control dependency with a data dependency; the store happens
/// unconditionally and the cursor advances by the mask value.
#[inline]
pub fn fill_nobranch(cmp: &[u8], base: u32, idx: &mut [u32]) -> usize {
    debug_assert!(idx.len() >= cmp.len());
    let mut k = 0usize;
    for (j, &c) in cmp.iter().enumerate() {
        idx[k] = base + j as u32;
        k += c as usize;
    }
    k
}

/// Branching construction: only store when the predicate passed.
#[inline]
pub fn fill_branch(cmp: &[u8], base: u32, idx: &mut [u32]) -> usize {
    debug_assert!(idx.len() >= cmp.len());
    let mut k = 0usize;
    for (j, &c) in cmp.iter().enumerate() {
        if c != 0 {
            idx[k] = base + j as u32;
            k += 1;
        }
    }
    k
}

/// ROF-style construction (§ II-A.3): append into a caller-owned vector that
/// accumulates a **full** selection vector across tiles, so downstream
/// operators almost always run fixed-trip-count loops.
#[inline]
pub fn append_nobranch(cmp: &[u8], base: u32, idx: &mut Vec<u32>) {
    let start = idx.len();
    // Extend to full width (the resize is a memset over reserved capacity,
    // amortized away by Vec's doubling), write predicated, then trim to the
    // qualifying count.
    idx.resize(start + cmp.len(), 0);
    let k = fill_nobranch(cmp, base, &mut idx[start..]);
    idx.truncate(start + k);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(cmp: &[u8], base: u32) -> Vec<u32> {
        cmp.iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(j, _)| base + j as u32)
            .collect()
    }

    #[test]
    fn nobranch_matches_reference() {
        let cmp = vec![1u8, 0, 0, 1, 1, 0, 1];
        let mut idx = vec![0u32; cmp.len()];
        let k = fill_nobranch(&cmp, 100, &mut idx);
        assert_eq!(&idx[..k], reference(&cmp, 100).as_slice());
    }

    #[test]
    fn branch_matches_reference() {
        let cmp = vec![0u8, 0, 1, 0, 1];
        let mut idx = vec![0u32; cmp.len()];
        let k = fill_branch(&cmp, 7, &mut idx);
        assert_eq!(&idx[..k], reference(&cmp, 7).as_slice());
    }

    #[test]
    fn variants_agree_on_random_masks() {
        let mut state = 99u64;
        for _ in 0..50 {
            let cmp: Vec<u8> = (0..257)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 62) & 1) as u8
                })
                .collect();
            let mut a = vec![0u32; cmp.len()];
            let mut b = vec![0u32; cmp.len()];
            let ka = fill_nobranch(&cmp, 0, &mut a);
            let kb = fill_branch(&cmp, 0, &mut b);
            assert_eq!(&a[..ka], &b[..kb]);
        }
    }

    #[test]
    fn append_accumulates_across_tiles() {
        let mut idx = Vec::new();
        append_nobranch(&[1, 0, 1], 0, &mut idx);
        append_nobranch(&[0, 1], 3, &mut idx);
        assert_eq!(idx, vec![0, 2, 4]);
    }

    #[test]
    fn all_zero_and_all_one_masks() {
        let mut idx = vec![0u32; 4];
        assert_eq!(fill_nobranch(&[0; 4], 0, &mut idx), 0);
        assert_eq!(fill_nobranch(&[1; 4], 10, &mut idx), 4);
        assert_eq!(&idx[..], &[10, 11, 12, 13]);
    }
}
