//! Dense positional bitmap.

// Bitmap invariant: positions are validated (or asserted) against
// `len` before word/bit arithmetic, so `pos / 64` indexes in-bounds
// and shift amounts are < 64 by construction (dev/test profiles carry
// overflow checks).
#![allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

/// A [`PositionalBitmap`]'s words by value. A loop that probes one bit per
/// lane through `&PositionalBitmap` loads the words' address from the
/// bitmap on every lane wherever the compiler cannot prove the load safe
/// to hoist; a copy of this view keeps it in a register.
#[derive(Debug, Clone, Copy)]
pub struct Bits<'a> {
    words: &'a [u64],
    len: usize,
}

impl Bits<'_> {
    /// Branch-free probe returning the bit as 0/1.
    #[inline(always)]
    pub fn get_bit(self, pos: usize) -> u64 {
        debug_assert!(pos < self.len);
        (self.words[pos >> 6] >> (pos & 63)) & 1
    }
}

/// A dense bitmap over row positions `0..len`.
///
/// 100 M rows occupy ~12.5 MB (paper § III-D), so the probe side of a bitmap
/// semijoin mostly hits cache — the access-pattern win the technique exists
/// for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositionalBitmap {
    words: Vec<u64>,
    len: usize,
}

impl PositionalBitmap {
    /// All-zero bitmap covering positions `0..len`.
    pub fn new(len: usize) -> PositionalBitmap {
        PositionalBitmap {
            words: vec![0; PositionalBitmap::bytes_for(len) / 8],
            len,
        }
    }

    /// [`PositionalBitmap::size_bytes`] of a bitmap over `len` positions:
    /// whole 64-bit words.
    pub fn bytes_for(len: usize) -> usize {
        len.div_ceil(64) * 8
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap covers no positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payload bytes (for the cost model and the paper's 12.5 MB/100 M-row
    /// claim).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Set bit `pos` to 1.
    #[inline(always)]
    pub fn set(&mut self, pos: usize) {
        debug_assert!(pos < self.len);
        self.words[pos >> 6] |= 1u64 << (pos & 63);
    }

    /// Unconditionally assign bit `pos` to `bit` (0 or 1).
    ///
    /// This is build variant (1) of § III-D: "unconditionally set the
    /// corresponding bit at the tuple offset in the bitmap to the value of
    /// the predicate result" — a branch-free sequential write stream.
    #[inline(always)]
    pub fn assign(&mut self, pos: usize, bit: u64) {
        debug_assert!(pos < self.len && bit <= 1);
        let w = &mut self.words[pos >> 6];
        let shift = pos & 63;
        *w = (*w & !(1u64 << shift)) | (bit << shift);
    }

    /// OR `bit` (0 or 1) into position `pos` — branch-free accumulation
    /// used when building a parent-side bitmap from a child-table scan
    /// (several children may map to the same parent, e.g. Q4's lineitem →
    /// orders semijoin build).
    #[inline(always)]
    pub fn or_bit(&mut self, pos: usize, bit: u64) {
        debug_assert!(pos < self.len && bit <= 1);
        self.words[pos >> 6] |= bit << (pos & 63);
    }

    /// Test bit `pos` — the per-probe-tuple operation, addressed by the
    /// foreign-key index offset.
    #[inline(always)]
    pub fn get(&self, pos: usize) -> bool {
        debug_assert!(pos < self.len);
        (self.words[pos >> 6] >> (pos & 63)) & 1 == 1
    }

    /// Branch-free probe returning the bit as 0/1 (feeds masking arithmetic).
    #[inline(always)]
    pub fn get_bit(&self, pos: usize) -> u64 {
        self.bits().get_bit(pos)
    }

    /// The bitmap as a probe loop reads it: [`Bits`], passed by value.
    #[inline(always)]
    pub fn bits(&self) -> Bits<'_> {
        Bits {
            words: &self.words,
            len: self.len,
        }
    }

    /// Build by assigning one predicate-result byte per position
    /// (unconditional sequential build).
    pub fn from_predicate_bytes(cmp: &[u8]) -> PositionalBitmap {
        let mut bm = PositionalBitmap::new(cmp.len());
        pack_words(cmp, &mut bm.words);
        bm
    }

    /// A bitmap over positions `0..len` from its words, written elsewhere
    /// (bit `j` of word `w` is position `64 w + j`; bits past `len` clear).
    pub fn from_words(len: usize, words: Vec<u64>) -> PositionalBitmap {
        assert_eq!(words.len(), len.div_ceil(64), "one word per 64 positions");
        debug_assert!(len.is_multiple_of(64) || words.last().is_some_and(|w| w >> (len % 64) == 0));
        PositionalBitmap { words, len }
    }

    /// Build by setting bits through a selection vector (build variant (2)
    /// of § III-D, chosen when the predicate selects few tuples).
    pub fn from_selection(len: usize, selected: &[u32]) -> PositionalBitmap {
        let mut bm = PositionalBitmap::new(len);
        for &pos in selected {
            bm.set(pos as usize);
        }
        bm
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union with another bitmap of the same length (Q19 resolves a
    /// disjunctive join predicate to "a union of semijoins" over per-branch
    /// bitmaps).
    pub fn union_with(&mut self, other: &PositionalBitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with another bitmap of the same length.
    pub fn intersect_with(&mut self, other: &PositionalBitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Flip every bit (tail bits beyond `len` stay clear).
    pub fn negate(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        let tail = self.len & 63;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Iterate over the positions of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Number of 64-bit words backing the bitmap — the unit of sequential
    /// traffic a positional-bitmap probe pass touches (metrics layer).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Raw words (used by the compressed encoder).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Pack one predicate byte per bit into `words` (the unconditional build's
/// inner loop).
fn pack_words(cmp: &[u8], words: &mut [u64]) {
    for (chunk, w) in cmp.chunks(64).zip(words.iter_mut()) {
        let mut packed = 0u64;
        for (i, &c) in chunk.iter().enumerate() {
            packed |= ((c & 1) as u64) << i;
        }
        *w = packed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_assign() {
        let mut bm = PositionalBitmap::new(130);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(65) && !bm.get(128));
        bm.assign(0, 0);
        assert!(!bm.get(0));
        bm.assign(1, 1);
        assert!(bm.get(1));
        assert_eq!(bm.get_bit(1), 1);
        assert_eq!(bm.get_bit(2), 0);
        assert_eq!(bm.count_ones(), 4);
    }

    #[test]
    fn from_predicate_bytes_matches_per_row() {
        let cmp: Vec<u8> = (0..200).map(|i| (i % 3 == 0) as u8).collect();
        let bm = PositionalBitmap::from_predicate_bytes(&cmp);
        for (i, &c) in cmp.iter().enumerate() {
            assert_eq!(bm.get(i), c == 1, "pos {i}");
        }
    }

    #[test]
    fn from_selection_matches() {
        let bm = PositionalBitmap::from_selection(100, &[3, 50, 99]);
        assert_eq!(bm.count_ones(), 3);
        assert!(bm.get(3) && bm.get(50) && bm.get(99));
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![3, 50, 99]);
    }

    #[test]
    fn union_and_intersection() {
        let a = PositionalBitmap::from_selection(70, &[1, 10, 65]);
        let b = PositionalBitmap::from_selection(70, &[10, 20]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 10, 20, 65]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    fn negate_respects_length() {
        let mut bm = PositionalBitmap::from_selection(66, &[0, 65]);
        bm.negate();
        assert_eq!(bm.count_ones(), 64);
        assert!(!bm.get(0) && !bm.get(65) && bm.get(1));
        // Double negate restores.
        bm.negate();
        assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 65]);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // zero-fills 12.5 MB; nothing unsafe to check
    fn size_matches_paper_claim() {
        // "a table with 100M tuples requires only about 12.5MB"
        let bm = PositionalBitmap::new(100_000_000);
        assert_eq!(bm.size_bytes(), 12_500_000);
    }

    #[test]
    fn empty_bitmap() {
        let bm = PositionalBitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.iter_ones().count(), 0);
    }
}
