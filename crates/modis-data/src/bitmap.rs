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
//! # Storage
//!
//! A search clones its states constantly: `OpGen` builds every child by
//! flipping a copy of its parent, and the visited set, the record store and
//! the ε-skyline each keep a copy of the states they hold. The paper's tasks
//! have a few dozen units and the churn pools fewer, so a bitmap of up to
//! two words (128 units) lives inline and cloning it is a copy; a longer one
//! (a [`crate::view::RowMask`] over a table's rows, say) keeps its words on
//! the heap. Every method reads and writes the one `&[u64]` / `&mut [u64]`
//! view of whichever storage holds the words, so [`StateBitmap::words`],
//! [`StateBitmap::from_words`], `Eq`, `Ord` and the `Hash` byte stream do
//! not depend on where the words live.
//!
//! # The word hasher
//!
//! [`WordHasher`] is a fixed FxHash-style multiply-rotate over the bitmap's
//! words: a handful of multiplies where std's SipHash makes a dozen rounds.
//! Being unkeyed, it is predictable, so it may back only the maps whose keys
//! the search generates itself: `search_common::VisitedSet` and
//! `ValuationContext`'s record index in `modis-core`, and the estimate table
//! of `modis-core`'s `FittedSurrogate`, keyed by feature rows the local
//! substrate computes from those states. Every map a peer can
//! fill — the engine's shared evaluation cache and its fitted-surrogate
//! memo, both reachable from a `SHIP` / `RESTORE` payload — keeps std's
//! randomly keyed `RandomState`, so a payload cannot be crafted to collide
//! in them. The substrates' memos keep it too: moving them measured no gain.
//!
//! Invariant: bits at positions `>= len` of the last word are always zero,
//! which lets `Eq`/`Hash` compare raw words without masking.

use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

const WORD_BITS: usize = 64;

/// Words a bitmap keeps inline: up to 128 units, a clone is a copy.
const INLINE_WORDS: usize = 2;

/// Where a bitmap's words live: inline when `words_for(len)` fits (words
/// past it stay zero and are never read), on the heap beyond.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl Words {
    fn zeroed(count: usize) -> Self {
        if count <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; count].into_boxed_slice())
        }
    }
}

/// A fixed-length bitmap over the reducible units of a universal table,
/// packed into `u64` words.
#[derive(Clone)]
pub struct StateBitmap {
    storage: Words,
    len: usize,
}

#[inline]
fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

impl StateBitmap {
    /// All-ones bitmap of length `n` (the universal state `s_U`).
    pub fn full(n: usize) -> Self {
        let mut b = StateBitmap::empty(n);
        b.words_mut().fill(u64::MAX);
        b.clear_tail();
        b
    }

    /// All-zeros bitmap of length `n` (the minimal backward state `s_b`).
    pub fn empty(n: usize) -> Self {
        StateBitmap {
            storage: Words::zeroed(words_for(n)),
            len: n,
        }
    }

    /// Builds a bitmap from explicit bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        let mut b = StateBitmap::empty(bits.len());
        for (i, &bit) in bits.iter().enumerate() {
            b.set(i, bit);
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
        if rem != 0 && words.last().is_some_and(|&last| last >> rem != 0) {
            return None;
        }
        let storage = if words.len() <= INLINE_WORDS {
            let mut inline = [0; INLINE_WORDS];
            inline[..words.len()].copy_from_slice(&words);
            Words::Inline(inline)
        } else {
            Words::Heap(words.into_boxed_slice())
        };
        Some(StateBitmap { storage, len })
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
        i < self.len && self.words()[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets entry `i` (no-op out of bounds).
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        if i < self.len {
            let (w, b) = (i / WORD_BITS, i % WORD_BITS);
            let words = self.words_mut();
            if v {
                words[w] |= 1u64 << b;
            } else {
                words[w] &= !(1u64 << b);
            }
        }
    }

    /// Number of set entries (word-wise popcount).
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of cleared entries.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Returns a copy with entry `i` flipped.
    pub fn flipped(&self, i: usize) -> StateBitmap {
        let mut b = self.clone();
        if i < b.len {
            b.words_mut()[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
        }
        b
    }

    /// Iterates the indices of set entries in increasing order: a plain
    /// loop over the words, the lowest set bit of the current word first.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let mut words = self.words().iter().enumerate();
        let (mut word, mut base) = (0u64, 0);
        std::iter::from_fn(move || {
            while word == 0 {
                let (i, &next) = words.next()?;
                (word, base) = (next, i * WORD_BITS);
            }
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(base + bit)
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

    /// The bits as a `Vec<bool>` (unpacked copy).
    pub fn bits(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// The packed words backing the bitmap (bit `i` at word `i / 64`,
    /// position `i % 64`; trailing bits of the last word are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.storage {
            Words::Inline(words) => &words[..words_for(self.len)],
            Words::Heap(words) => words,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.storage {
            Words::Inline(words) => &mut words[..words_for(self.len)],
            Words::Heap(words) => words,
        }
    }

    /// In-place word-wise intersection (`self &= other`). `self` keeps its
    /// length; entries of `other` beyond it are ignored, entries missing
    /// from `other` read 0.
    pub(crate) fn and_with(&mut self, other: &StateBitmap) {
        let other = other.words();
        let words = self.words_mut();
        for (w, o) in words.iter_mut().zip(other) {
            *w &= o;
        }
        for w in words.iter_mut().skip(other.len()) {
            *w = 0;
        }
    }

    /// In-place word-wise union (`self |= other`). `self` keeps its length;
    /// entries of `other` beyond it are ignored.
    pub(crate) fn or_with(&mut self, other: &StateBitmap) {
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w |= o;
        }
        self.clear_tail();
    }

    /// In-place word-wise difference (`self &= !other`). `self` keeps its
    /// length; entries of `other` beyond it are ignored.
    pub(crate) fn and_not_with(&mut self, other: &StateBitmap) {
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
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

    /// Number of entries set in both bitmaps: the popcount of the word-wise
    /// AND, without materialising it. Entries beyond the shorter bitmap
    /// read 0.
    #[inline]
    pub(crate) fn intersection_count(&self, other: &StateBitmap) -> usize {
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Zeroes any bits of the last word beyond `len`, restoring the padding
    /// invariant after a word-wise op that may have set them.
    fn clear_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words_mut().last_mut() {
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
}

impl PartialEq for StateBitmap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for StateBitmap {}

impl Hash for StateBitmap {
    /// The words, then the length: the stream `#[derive(Hash)]` wrote while
    /// the words were a `Vec<u64>` field. Substrate fingerprints hash start
    /// states through a stable hasher and are persisted in snapshots, so the
    /// stream must not depend on the storage.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
        self.len.hash(state);
    }
}

impl fmt::Debug for StateBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateBitmap")
            .field("words", &self.words())
            .field("len", &self.len)
            .finish()
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
        let (a, b) = (self.words(), other.words());
        let common = self.len.min(other.len);
        let full_words = common / WORD_BITS;
        for w in 0..full_words {
            let diff = a[w] ^ b[w];
            if diff != 0 {
                let bit = diff.trailing_zeros();
                return if a[w] >> bit & 1 == 0 {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
            }
        }
        let rem = common % WORD_BITS;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            let diff = (a[full_words] ^ b[full_words]) & mask;
            if diff != 0 {
                let bit = diff.trailing_zeros();
                return if a[full_words] >> bit & 1 == 0 {
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

/// An unkeyed FxHash-style hasher for maps keyed by states the search
/// generates itself (see the module doc for which maps may use it): each
/// word is folded in with a rotate, an xor and one multiply, and `finish`
/// rotates the well-mixed high bits down to where a table takes its bucket
/// index.
#[derive(Debug, Clone, Default)]
pub struct WordHasher {
    hash: u64,
}

/// The multiplier of rustc's FxHash.
const WORD_HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(WORD_HASH_SEED);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_ne_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_ne_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// The `BuildHasher` of [`WordHasher`], for `HashMap` / `HashSet`.
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    #[test]
    fn full_and_empty() {
        let f = StateBitmap::full(4);
        let e = StateBitmap::empty(4);
        assert_eq!(f.count_ones(), 4);
        assert_eq!(e.count_ones(), 0);
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
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(b.iter_zeros().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(b.count_zeros(), 2);
    }

    #[test]
    fn iter_ones_crosses_words() {
        let mut b = StateBitmap::empty(130);
        for i in [0, 63, 64, 127, 129] {
            b.set(i, true);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 127, 129]);
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
        // Shorter `other` reads as zero-padded.
        let short = StateBitmap::from_bits(vec![true]);
        assert_eq!(
            a.and(&short),
            StateBitmap::from_bits(vec![true, false, false, false])
        );
        assert_eq!(a.or(&short).len(), 4);
    }

    /// The `Hash` stream is the one the derived impl over `{ words:
    /// Vec<u64>, len: usize }` wrote, inline or on the heap: persisted
    /// fingerprints hash bitmaps.
    #[test]
    fn hash_stream_is_the_words_then_the_length() {
        let state = RandomState::new();
        for n in [0, 5, 64, 128, 129, 200] {
            let b = StateBitmap::full(n).flipped(n / 2);
            assert_eq!(
                state.hash_one(&b),
                state.hash_one((b.words().to_vec(), n)),
                "n = {n}"
            );
        }
    }

    /// Cloning stays a copy exactly up to the inline capacity.
    #[test]
    fn storage_is_inline_up_to_two_words() {
        for (n, inline) in [(0, true), (1, true), (128, true), (129, false)] {
            let b = StateBitmap::full(n);
            assert_eq!(matches!(b.storage, Words::Inline(_)), inline, "n = {n}");
            let rebuilt = StateBitmap::from_words(b.words().to_vec(), n).unwrap();
            assert_eq!(
                matches!(rebuilt.storage, Words::Inline(_)),
                inline,
                "n = {n}"
            );
        }
    }

    /// The bitmap a `Vec<bool>` model describes, and the model.
    fn model(len: usize, raw: &[bool], fill: usize) -> (StateBitmap, Vec<bool>) {
        let bits: Vec<bool> = raw[..len]
            .iter()
            .map(|&b| match fill {
                0 => false,
                1 => true,
                _ => b,
            })
            .collect();
        (StateBitmap::from_bits(bits.clone()), bits)
    }

    const LENGTHS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 200];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every public operation, inline and on the heap, agrees with a
        /// `Vec<bool>` model, and equal bitmaps hash equal under both
        /// `RandomState` and [`WordHasher`].
        #[test]
        fn every_operation_matches_a_vec_bool_model(
            len_a in 0usize..9,
            len_b in 0usize..9,
            raw_a in prop::collection::vec(any::<bool>(), 200),
            raw_b in prop::collection::vec(any::<bool>(), 200),
            fill_a in 0usize..4,
            fill_b in 0usize..4,
            probe in 0usize..210,
        ) {
            let (a, ma) = model(LENGTHS[len_a], &raw_a, fill_a);
            let (b, mb) = model(LENGTHS[len_b], &raw_b, fill_b);
            let (la, lb) = (ma.len(), mb.len());

            // Reads.
            prop_assert_eq!(a.len(), la);
            prop_assert_eq!(a.is_empty(), la == 0);
            prop_assert_eq!(a.bits(), ma.clone());
            prop_assert_eq!(a.get(probe), ma.get(probe).copied().unwrap_or(false));
            let ones: Vec<usize> = (0..la).filter(|&i| ma[i]).collect();
            let zeros: Vec<usize> = (0..la).filter(|&i| !ma[i]).collect();
            prop_assert_eq!(a.iter_ones().collect::<Vec<_>>(), ones.clone());
            prop_assert_eq!(a.iter_zeros().collect::<Vec<_>>(), zeros.clone());
            prop_assert_eq!(a.count_ones(), ones.len());
            prop_assert_eq!(a.count_zeros(), zeros.len());

            // Words round-trip, padding clear.
            prop_assert_eq!(a.words().len(), la.div_ceil(64));
            for (w, word) in a.words().iter().enumerate() {
                for bit in 0..64 {
                    let i = w * 64 + bit;
                    prop_assert_eq!(word >> bit & 1 == 1, i < la && ma[i]);
                }
            }
            prop_assert_eq!(StateBitmap::from_words(a.words().to_vec(), la), Some(a.clone()));

            // Writes.
            let mut set = a.clone();
            let mut mset = ma.clone();
            let value = !a.get(probe);
            set.set(probe, value);
            if probe < la {
                mset[probe] = value;
            }
            prop_assert_eq!(set.bits(), mset.clone());
            let mut flip = ma.clone();
            if probe < la {
                flip[probe] = !flip[probe];
            }
            prop_assert_eq!(a.flipped(probe).bits(), flip);

            // Binary operations: `self`'s length, `other` zero-padded.
            let other = |i: usize| i < lb && mb[i];
            let and: Vec<bool> = (0..la).map(|i| ma[i] && other(i)).collect();
            let or: Vec<bool> = (0..la).map(|i| ma[i] || other(i)).collect();
            let and_not: Vec<bool> = (0..la).map(|i| ma[i] && !other(i)).collect();
            prop_assert_eq!(a.and(&b).bits(), and.clone());
            prop_assert_eq!(a.or(&b).bits(), or.clone());
            let (mut x, mut y, mut z) = (a.clone(), a.clone(), a.clone());
            x.and_with(&b);
            y.or_with(&b);
            z.and_not_with(&b);
            prop_assert_eq!((x.bits(), y.bits(), z.bits()), (and.clone(), or, and_not));
            prop_assert_eq!(a.or(&b).count_ones(), (0..la).filter(|&i| ma[i] || other(i)).count());
            let common = and.iter().filter(|&&v| v).count();
            prop_assert_eq!(a.intersection_count(&b), common);
            let (na, nb) = (ones.len() as f64, mb.iter().filter(|&&v| v).count() as f64);
            let cosine = if na == 0.0 || nb == 0.0 {
                0.0
            } else {
                common as f64 / (na.sqrt() * nb.sqrt())
            };
            prop_assert_eq!(a.cosine_similarity(&b).to_bits(), cosine.to_bits());

            // Order and equality.
            prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
            prop_assert_eq!(a == b, ma == mb);

            // Equal bitmaps hash equal under both hashers, whichever way
            // they were built.
            let twin = StateBitmap::from_words(a.words().to_vec(), la).unwrap();
            let (random, word) = (RandomState::new(), BuildWordHasher::default());
            prop_assert_eq!(random.hash_one(&a), random.hash_one(&twin));
            prop_assert_eq!(word.hash_one(&a), word.hash_one(&twin));
            prop_assert_eq!(word.hash_one(&a), word.hash_one(a.clone()));
        }
    }

    /// Distinct states of one length spread over a table's buckets: the
    /// one-flip neighbourhoods of a paper-sized state leave no low-bit
    /// bucket overfull.
    #[test]
    fn word_hasher_spreads_neighbouring_states() {
        let build = BuildWordHasher::default();
        let full = StateBitmap::full(42);
        let mut states = vec![full.clone()];
        for i in 0..42 {
            let child = full.flipped(i);
            states.extend((i + 1..42).map(|j| child.flipped(j)));
            states.push(child);
        }
        let buckets = 1024;
        let mut load = vec![0usize; buckets];
        for s in &states {
            load[build.hash_one(s) as usize % buckets] += 1;
        }
        // 904 states in 1,024 buckets: a uniform hash puts ≤ 6 in any one.
        assert!(
            load.iter().all(|&n| n <= 8),
            "max load {:?}",
            load.iter().max()
        );
    }
}
