//! State bitmaps `L`.
//!
//! ApxMODis associates each state `s` with a bitmap `L` that encodes whether
//! the schema of `s` contains an attribute of `D_U` and whether `D_s`
//! contains values from each active-domain cluster (§5.2, Fig. 4 / Example 5
//! use labels such as `(1, 1, 1, 0)`). Flipping a 1-bit to 0 corresponds to
//! applying one reduct operator; flipping 0→1 is an augmentation in the
//! backward search of BiMODis.
//!
//! Bits are packed 64 to a `u64` word (bit `i` lives at word `i / 64`,
//! position `i % 64`), so equality, hashing, population counts and the
//! similarity/distance kernels used by dominance bookkeeping and the
//! diversification distance all run word-wise instead of bit-by-bit. Every
//! search cache (`ValuationContext`'s record store, the substrates' memo
//! tables, the engine's sharded cross-scenario cache) keys on `StateBitmap`,
//! so these word-level `Hash`/`Eq`/`Ord` implementations sit on the hot path
//! of every state valuation.
//!
//! Invariant: bits at positions `>= len` of the last word are always zero,
//! which lets `Eq`/`Hash` compare raw words without masking.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length bitmap over the reducible units of a universal table,
/// packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateBitmap {
    words: Vec<u64>,
    len: usize,
}

#[inline]
fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

impl StateBitmap {
    /// All-ones bitmap of length `n` (the universal state `s_U`).
    pub fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; words_for(n)];
        let rem = n % WORD_BITS;
        if rem != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << rem) - 1;
            }
        }
        StateBitmap { words, len: n }
    }

    /// All-zeros bitmap of length `n` (the minimal backward state `s_b`).
    pub fn empty(n: usize) -> Self {
        StateBitmap {
            words: vec![0; words_for(n)],
            len: n,
        }
    }

    /// Builds a bitmap from explicit bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        let mut b = StateBitmap::empty(bits.len());
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                b.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        b
    }

    /// Rebuilds a bitmap from its packed words (the inverse of
    /// [`Self::words`], used by the cache-snapshot codec). Returns `None`
    /// when the word count does not match `len` or a padding bit beyond
    /// `len` is set — both would break the masking-free `Eq`/`Hash`
    /// invariant, so malformed input is rejected instead of adopted.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != words_for(len) {
            return None;
        }
        let rem = len % WORD_BITS;
        if rem != 0 {
            if let Some(&last) = words.last() {
                if last & !((1u64 << rem) - 1) != 0 {
                    return None;
                }
            }
        }
        Some(StateBitmap { words, len })
    }

    /// Length of the bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of entry `i` (`false` out of bounds).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets entry `i` (no-op out of bounds).
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        if i < self.len {
            let (w, b) = (i / WORD_BITS, i % WORD_BITS);
            if v {
                self.words[w] |= 1u64 << b;
            } else {
                self.words[w] &= !(1u64 << b);
            }
        }
    }

    /// Number of set entries (word-wise popcount).
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of cleared entries.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Returns a copy with entry `i` flipped.
    pub fn flipped(&self, i: usize) -> StateBitmap {
        let mut b = self.clone();
        if i < b.len {
            b.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
        }
        b
    }

    /// Iterates the indices of set entries in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let w = w & (w - 1);
                (w != 0).then_some(w)
            })
            .map(move |w| wi * WORD_BITS + w.trailing_zeros() as usize)
        })
    }

    /// Iterates the indices of cleared entries in increasing order.
    pub fn iter_zeros(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| !self.get(i))
    }

    /// Iterates all entries in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Indices of set entries.
    pub fn ones(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    /// Indices of cleared entries.
    pub fn zeros(&self) -> Vec<usize> {
        self.iter_zeros().collect()
    }

    /// The bits as a `Vec<bool>` (unpacked copy).
    pub fn bits(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// The packed words backing the bitmap (bit `i` at word `i / 64`,
    /// position `i % 64`; trailing bits of the last word are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// In-place word-wise intersection (`self &= other`). `self` keeps its
    /// length; entries of `other` beyond it are ignored, entries missing
    /// from `other` read 0.
    pub fn and_with(&mut self, other: &StateBitmap) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        let shared = other.words.len();
        for w in self.words.iter_mut().skip(shared) {
            *w = 0;
        }
    }

    /// In-place word-wise union (`self |= other`). `self` keeps its length;
    /// entries of `other` beyond it are ignored.
    pub fn or_with(&mut self, other: &StateBitmap) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.clear_tail();
    }

    /// In-place word-wise difference (`self &= !other`). `self` keeps its
    /// length; entries of `other` beyond it are ignored.
    pub fn and_not_with(&mut self, other: &StateBitmap) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Word-wise intersection. The result has `self`'s length; entries of
    /// `other` beyond it are ignored, entries missing from `other` read 0.
    pub fn and(&self, other: &StateBitmap) -> StateBitmap {
        let mut out = self.clone();
        out.and_with(other);
        out
    }

    /// Word-wise union. The result has `self`'s length; entries of `other`
    /// beyond it are ignored.
    pub fn or(&self, other: &StateBitmap) -> StateBitmap {
        let mut out = self.clone();
        out.or_with(other);
        out
    }

    /// Word-wise difference (`self AND NOT other`). The result has `self`'s
    /// length; entries of `other` beyond it are ignored.
    pub fn and_not(&self, other: &StateBitmap) -> StateBitmap {
        let mut out = self.clone();
        out.and_not_with(other);
        out
    }

    /// Number of entries set in both bitmaps: the popcount of the word-wise
    /// AND, without materialising it. Entries beyond the shorter bitmap
    /// read 0.
    #[inline]
    pub fn intersection_count(&self, other: &StateBitmap) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Zeroes any bits of the last word beyond `len`, restoring the padding
    /// invariant after a word-wise op that may have set them.
    fn clear_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Cosine similarity between two bitmaps viewed as 0/1 vectors.
    ///
    /// Used by the diversification distance (Eq. 2). Returns 0 when either
    /// bitmap is all-zero. Entries of the longer bitmap beyond the common
    /// prefix contribute to the norms but not the dot product.
    pub fn cosine_similarity(&self, other: &StateBitmap) -> f64 {
        // Zero-padding makes the word-wise AND vanish beyond the shorter
        // bitmap, so the dot product over zipped words is exactly the dot
        // product over the common prefix.
        let dot = self.intersection_count(other);
        let na = self.count_ones() as f64;
        let nb = other.count_ones() as f64;
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot as f64 / (na.sqrt() * nb.sqrt())
        }
    }

    /// Hamming distance between two bitmaps (differing positions; the longer
    /// bitmap's tail counts where it has set bits).
    pub fn hamming_distance(&self, other: &StateBitmap) -> usize {
        let (short, long) = if self.words.len() <= other.words.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut d: usize = short
            .words
            .iter()
            .zip(&long.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        d += long
            .words
            .iter()
            .skip(short.words.len())
            .map(|w| w.count_ones() as usize)
            .sum::<usize>();
        d
    }
}

impl PartialOrd for StateBitmap {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StateBitmap {
    /// Lexicographic order over the bit sequence (bit 0 first, `false <
    /// true`), then by length — identical to the order the old `Vec<bool>`
    /// backing derived, so deterministic tie-breaks in `finalize_result`
    /// sort skyline entries exactly as before.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        let common = self.len.min(other.len);
        let full_words = common / WORD_BITS;
        for w in 0..full_words {
            let diff = self.words[w] ^ other.words[w];
            if diff != 0 {
                let bit = diff.trailing_zeros();
                return if self.words[w] >> bit & 1 == 0 {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
            }
        }
        let rem = common % WORD_BITS;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            let diff = (self.words[full_words] ^ other.words[full_words]) & mask;
            if diff != 0 {
                let bit = diff.trailing_zeros();
                return if self.words[full_words] >> bit & 1 == 0 {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
            }
        }
        self.len.cmp(&other.len)
    }
}

impl fmt::Display for StateBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s: String = self.iter().map(|b| if b { '1' } else { '0' }).collect();
        write!(f, "({s})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_empty() {
        let f = StateBitmap::full(4);
        let e = StateBitmap::empty(4);
        assert_eq!(f.count_ones(), 4);
        assert_eq!(e.count_ones(), 0);
        assert_eq!(f.hamming_distance(&e), 4);
    }

    #[test]
    fn full_is_exact_across_word_boundaries() {
        for n in [63, 64, 65, 128, 130] {
            let f = StateBitmap::full(n);
            assert_eq!(f.count_ones(), n, "n = {n}");
            assert!(!f.get(n), "padding bit must read false");
            assert_eq!(f, StateBitmap::from_bits(vec![true; n]));
        }
    }

    #[test]
    fn flip_is_involutive() {
        let b = StateBitmap::full(3);
        let b2 = b.flipped(1).flipped(1);
        assert_eq!(b, b2);
    }

    #[test]
    fn ones_and_zeros_partition_indices() {
        let b = StateBitmap::from_bits(vec![true, false, true, false]);
        assert_eq!(b.ones(), vec![0, 2]);
        assert_eq!(b.zeros(), vec![1, 3]);
        assert_eq!(b.count_zeros(), 2);
    }

    #[test]
    fn iter_ones_crosses_words() {
        let mut b = StateBitmap::empty(130);
        for i in [0, 63, 64, 127, 129] {
            b.set(i, true);
        }
        assert_eq!(b.ones(), vec![0, 63, 64, 127, 129]);
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn cosine_similarity_bounds() {
        let a = StateBitmap::from_bits(vec![true, true, false]);
        let b = StateBitmap::from_bits(vec![true, false, false]);
        let sim = a.cosine_similarity(&b);
        assert!(sim > 0.0 && sim <= 1.0);
        assert!((a.cosine_similarity(&a) - 1.0).abs() < 1e-12);
        let zero = StateBitmap::empty(3);
        assert_eq!(a.cosine_similarity(&zero), 0.0);
    }

    #[test]
    fn from_words_round_trips_and_rejects_malformed_input() {
        for n in [0, 1, 63, 64, 65, 130] {
            let mut b = StateBitmap::empty(n);
            for i in (0..n).step_by(3) {
                b.set(i, true);
            }
            let rebuilt = StateBitmap::from_words(b.words().to_vec(), n).unwrap();
            assert_eq!(rebuilt, b, "n = {n}");
        }
        // Wrong word count.
        assert!(StateBitmap::from_words(vec![0, 0], 64).is_none());
        // Padding bit set beyond len.
        assert!(StateBitmap::from_words(vec![1 << 5], 5).is_none());
        assert!(StateBitmap::from_words(vec![(1 << 5) - 1], 5).is_some());
    }

    #[test]
    fn set_and_get_out_of_bounds_are_safe() {
        let mut b = StateBitmap::empty(2);
        b.set(10, true);
        assert!(!b.get(10));
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn display_shows_bits() {
        let b = StateBitmap::from_bits(vec![true, false, true]);
        assert_eq!(b.to_string(), "(101)");
    }

    #[test]
    fn different_length_hamming() {
        let a = StateBitmap::from_bits(vec![true]);
        let b = StateBitmap::from_bits(vec![true, true, false]);
        assert_eq!(a.hamming_distance(&b), 1);
    }

    #[test]
    fn ordering_matches_vec_bool_lexicographic() {
        let cases = [
            (vec![false, true], vec![true, false]),
            (vec![true], vec![true, true, false]),
            (vec![true, true], vec![true, true]),
            (vec![false; 70], vec![true; 70]),
        ];
        for (a, b) in cases {
            let pa = StateBitmap::from_bits(a.clone());
            let pb = StateBitmap::from_bits(b.clone());
            assert_eq!(pa.cmp(&pb), a.cmp(&b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn word_ops_match_bitwise_semantics() {
        let a = StateBitmap::from_bits(vec![true, true, false, false]);
        let b = StateBitmap::from_bits(vec![true, false, true, false]);
        assert_eq!(
            a.and(&b),
            StateBitmap::from_bits(vec![true, false, false, false])
        );
        assert_eq!(
            a.or(&b),
            StateBitmap::from_bits(vec![true, true, true, false])
        );
        assert_eq!(
            a.and_not(&b),
            StateBitmap::from_bits(vec![false, true, false, false])
        );
        // Shorter `other` reads as zero-padded.
        let short = StateBitmap::from_bits(vec![true]);
        assert_eq!(
            a.and(&short),
            StateBitmap::from_bits(vec![true, false, false, false])
        );
        assert_eq!(a.or(&short).len(), 4);
    }
}
