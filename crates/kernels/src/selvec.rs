//! Selection-vector construction kernels.
//!
//! The hybrid strategy's "second inner loop" (Fig. 1): convert a tile's
//! `cmp` mask into a selection vector of qualifying row offsets. Two
//! variants exist because (per Ross \[31\], cited in § II-A) the predicated
//! no-branch form avoids branch mispredictions at intermediate
//! selectivities while a branching form can win at the extremes — the
//! `ablations` bench measures the trade-off. The engine runs neither: it
//! runs [`fill_adaptive`], which compacts eight packed lanes a step on dense
//! tiles and walks the packed mask's bits on sparse ones.

// Tile-loop kernels: index arithmetic is bounded by slice lengths
// (debug_assert'd; dev/test profiles carry overflow checks).
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

/// Sparse construction: pack each 64 lanes into a word ([`mask_word`]) and
/// store the offset of each set bit (`trailing_zeros`, then clear the lowest
/// bit). Four stores per word whatever it holds leave no exit to mispredict
/// in a sparse word; `idx` past the returned count is unspecified. Never
/// inlined, so the engine and `figures --fig 4s` run one copy of the loop.
#[inline(never)]
pub fn fill_sparse(cmp: &[u8], base: u32, idx: &mut [u32]) -> usize {
    debug_assert!(idx.len() >= cmp.len());
    let mut k = 0usize;
    for (w, lanes) in cmp.chunks(64).enumerate() {
        let (mut word, at) = (mask_word(lanes), base + (w * 64) as u32);
        let (n, mut j) = (word.count_ones() as usize, k);
        if let Some(four) = idx.get_mut(k..k + 4) {
            for slot in four {
                *slot = at + word.trailing_zeros();
                word &= word.wrapping_sub(1);
            }
            j += 4;
        }
        while word != 0 {
            idx[j] = at + word.trailing_zeros();
            j += 1;
            word &= word - 1;
        }
        k += n;
    }
    k
}

/// Per byte: the positions of its set bits, lowest first, then (slot 8)
/// how many there are.
static BYTE_OFFSETS: [[u8; 9]; 256] = {
    let (mut t, mut at) = ([[0u8; 9]; 256], 0);
    while at < 256 * 8 {
        let (b, bit) = (at / 8, at % 8);
        if (b >> bit) & 1 == 1 {
            t[b][t[b][8] as usize] = bit as u8;
            t[b][8] += 1;
        }
        at += 1;
    }
    t
};

/// Dense construction, eight lanes a step: pack eight mask lanes into a
/// byte ([`mask_word`]'s multiply), store that byte's eight offsets from a
/// 256 × 8 table whatever it holds, and advance by its count. A group with
/// no room left for eight stores stores only its count, so `idx` needs no
/// slack past `cmp.len()`; `idx` past the returned count is unspecified.
#[inline(never)]
pub fn fill_dense(cmp: &[u8], base: u32, idx: &mut [u32]) -> usize {
    debug_assert!(idx.len() >= cmp.len());
    let mut k = 0usize;
    let mut step = |eight: [u8; 8], at: u32| {
        let offs = &BYTE_OFFSETS[pack8(eight) as usize];
        let n = usize::from(offs[8]);
        let dst = match idx.get_mut(k..k + 8) {
            Some(eight) => eight,
            None => &mut idx[k..k + n],
        };
        for (d, &o) in dst.iter_mut().zip(offs) {
            *d = at + u32::from(o);
        }
        k += n;
    };
    let chunks = cmp.chunks_exact(8);
    let (tail, mut eight) = (chunks.remainder(), [0u8; 8]);
    let tail_at = base + (cmp.len() - tail.len()) as u32;
    for (at, lanes) in (base..).step_by(8).zip(chunks) {
        step(lanes.try_into().expect("chunks of 8"), at);
    }
    if !tail.is_empty() {
        eight[..tail.len()].copy_from_slice(tail);
        step(eight, tail_at);
    }
    k
}

/// A tile is sparse when fewer than one lane in `SPARSE_ONE_IN` qualifies:
/// there [`fill_sparse`] beats [`fill_dense`] (`figures --fig 4s`).
pub const SPARSE_ONE_IN: usize = 16;

/// The compaction the engine serves: [`fill_sparse`] when the previous tile
/// was sparse, [`fill_dense`] otherwise. `sparse` carries one tile's
/// density to the next: a dense tile pays one compare, not a second pass.
#[inline]
pub fn fill_adaptive(cmp: &[u8], base: u32, idx: &mut [u32], sparse: &mut bool) -> usize {
    let k = match *sparse {
        true => fill_sparse(cmp, base, idx),
        false => fill_dense(cmp, base, idx),
    };
    *sparse = k * SPARSE_ONE_IN < cmp.len();
    k
}

/// Pack up to 64 mask lanes into one bitmap word, lane `j` into bit `j`,
/// eight per multiply: as a little-endian `u64`, eight 0/1 lanes sit on bits
/// `0, 8, …, 56`, and `× 0x0102…80` moves lane `i` to bit `56 + i` with no
/// two partial products sharing a bit, so nothing carries into the top byte.
#[inline]
pub fn mask_word(lanes: &[u8]) -> u64 {
    debug_assert!(lanes.len() <= 64, "one word holds 64 lanes");
    debug_assert!(lanes.iter().all(|&c| c <= 1), "a mask holds 0 / 1");
    let (chunks, mut eight) = (lanes.chunks_exact(8), [0u8; 8]);
    let tail = chunks.remainder();
    eight[..tail.len()].copy_from_slice(tail);
    // No tail gathers to 0, which the shift by 64 (taken mod 64) keeps 0.
    let word = pack8(eight).wrapping_shl((lanes.len() - tail.len()) as u32);
    chunks.enumerate().fold(word, |word, (i, eight)| {
        word | pack8(eight.try_into().expect("chunks of 8")) << (8 * i)
    })
}

/// Eight 0/1 lanes packed into the low byte, lane `i` into bit `i`.
#[inline(always)]
fn pack8(eight: [u8; 8]) -> u64 {
    u64::from_le_bytes(eight).wrapping_mul(0x0102_0408_1020_4080) >> 56
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

    /// Every length of a tile and every tail — not a multiple of 8 lanes,
    /// not of 64 — at densities from none to all: the packer builds the
    /// bitmap `from_predicate_bytes` does, and the sparse, dense and served
    /// compactions the selection `fill_nobranch` does.
    #[test]
    fn packer_and_compactions_match_the_references() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use swole_bitmap::PositionalBitmap;
        let mut rng = SmallRng::seed_from_u64(0x5E1);
        for sigma in [0.0, 0.001, 0.01, 0.1, 0.5, 1.0] {
            for len in 0..=1024usize {
                let cmp: Vec<u8> = (0..len).map(|_| rng.gen_bool(sigma) as u8).collect();
                let words = cmp.chunks(64).map(mask_word).collect();
                assert_eq!(
                    PositionalBitmap::from_words(len, words),
                    PositionalBitmap::from_predicate_bytes(&cmp),
                    "σ={sigma} len={len}"
                );
                let mut want = vec![0u32; len];
                let k = fill_nobranch(&cmp, 7, &mut want);
                // No slack past `len`: the last groups store only their count.
                let mut got = vec![0u32; len];
                let ks = fill_sparse(&cmp, 7, &mut got);
                assert_eq!(&got[..ks], &want[..k], "σ={sigma} len={len}");
                let kd = fill_dense(&cmp, 7, &mut got);
                assert_eq!(&got[..kd], &want[..k], "σ={sigma} len={len}");
                for mut sparse in [false, true] {
                    let kk = fill_adaptive(&cmp, 7, &mut got, &mut sparse);
                    assert_eq!(&got[..kk], &want[..k], "σ={sigma} len={len}");
                    assert_eq!(sparse, k * SPARSE_ONE_IN < len);
                }
            }
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
