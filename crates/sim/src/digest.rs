//! Streaming state digests for checkpoint hashing.
//!
//! [`ElementHash`] folds an ordered word stream, one multiply and one
//! xor-shift per word, and [`finish`](ElementHash::finish)es it with a
//! full-avalanche mix: it digests a machine's canonical state words, and
//! each element of a set. [`SetDigest`] hashes an unordered set of word
//! tuples — the pending arrivals of a machine — in any visiting order:
//! each element's finished [`ElementHash`] is summed, so the digest
//! depends on which elements are present, not on where they happen to be
//! stored. [`Fnv1a`] is standard 64-bit FNV-1a over the little-endian
//! bytes of a word stream, for digests that reach a report. State and set
//! digests are only compared within one process and never persisted, so
//! their definition may change between versions.

/// 64-bit FNV-1a over the little-endian bytes of a word stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV-1a offset basis: the digest of the empty stream.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds one word.
    #[inline]
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest of every word fed so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Folds an ordered word stream — one set element's words, or a machine's
/// canonical state words — into 64 bits.
///
/// Each [`word`](Self::word) step is a bijection of the running state for
/// a fixed word, and [`finish`](Self::finish) is a bijection too, so two
/// streams of the same length that differ in exactly one word never fold
/// to the same value.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ElementHash(u64);

impl ElementHash {
    /// Feeds one word.
    #[inline]
    pub fn word(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    /// The fold of every word fed so far, finished with a full-avalanche
    /// mix (the splitmix64 finaliser).
    #[inline]
    #[must_use]
    pub fn finish(self) -> u64 {
        mix64(self.0)
    }
}

/// Order-independent digest of a set of elements: the element count plus
/// the wrapping sum of each element's [finished](ElementHash::finish)
/// [`ElementHash`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SetDigest {
    count: u64,
    sum: u64,
}

impl SetDigest {
    /// Adds one element.
    #[inline]
    pub fn insert(&mut self, element: ElementHash) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(element.finish());
    }

    /// Removes every element of `subset`, which must hold only elements
    /// this digest holds: a digest of a prefix of the same insertions,
    /// say. The result is the digest of the remaining elements.
    #[inline]
    pub fn remove_all(&mut self, subset: SetDigest) {
        self.count -= subset.count;
        self.sum = self.sum.wrapping_sub(subset.sum);
    }

    /// Elements inserted so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Wrapping sum of the mixed element hashes.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// The splitmix64 finaliser: a full-avalanche bijection on 64 bits. Mixing
/// before summing keeps [`SetDigest`] non-linear in each element's words,
/// so moving a payload word from one element to another changes the sum.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn element(words: &[u64]) -> ElementHash {
        let mut element = ElementHash::default();
        for &word in words {
            element.word(word);
        }
        element
    }

    #[test]
    fn fnv1a_matches_the_reference_byte_loop() {
        let mut fnv = Fnv1a::new();
        fnv.word(0x0123_4567_89ab_cdef);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in 0x0123_4567_89ab_cdef_u64.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(fnv.finish(), hash);
    }

    /// Every stream of `LEN` words over `VALUES`, each compared with every
    /// stream that differs from it in exactly one word.
    #[test]
    fn streams_differing_in_one_word_never_fold_equal() {
        const VALUES: [u64; 4] = [0, 1, u64::MAX, 1 << 63];
        const LEN: u32 = 5;
        let fold = |words: &[u64]| element(words).finish();
        for code in 0..VALUES.len().pow(LEN) {
            let stream: Vec<u64> = (0..LEN)
                .map(|i| VALUES[code / VALUES.len().pow(i) % VALUES.len()])
                .collect();
            let hash = fold(&stream);
            for position in 0..stream.len() {
                for value in VALUES {
                    if value == stream[position] {
                        continue;
                    }
                    let mut changed = stream.clone();
                    changed[position] = value;
                    assert_ne!(fold(&changed), hash, "{stream:?} vs {changed:?}");
                }
            }
        }
    }

    #[test]
    fn set_digest_ignores_insertion_order() {
        let tuples = [[1, 2, 3], [4, 5, 6], [7, 8, 9]];
        let mut forward = SetDigest::default();
        let mut backward = SetDigest::default();
        for tuple in &tuples {
            forward.insert(element(tuple));
        }
        for tuple in tuples.iter().rev() {
            backward.insert(element(tuple));
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.count(), 3);
    }

    #[test]
    fn removing_a_prefix_leaves_the_digest_of_the_rest() {
        let tuples = [[1, 2], [3, 4], [5, 6], [7, 8]];
        let mut all = SetDigest::default();
        let mut prefix = SetDigest::default();
        let mut rest = SetDigest::default();
        for (i, tuple) in tuples.iter().enumerate() {
            all.insert(element(tuple));
            if i < 2 {
                prefix.insert(element(tuple));
            } else {
                rest.insert(element(tuple));
            }
        }
        all.remove_all(prefix);
        assert_eq!(all, rest);
        assert_eq!(all.count(), 2);
    }

    #[test]
    fn set_digest_binds_words_to_their_element() {
        let digest = |tuples: &[[u64; 2]]| {
            let mut digest = SetDigest::default();
            for tuple in tuples {
                digest.insert(element(tuple));
            }
            digest
        };
        // Swapping the second words of two elements keeps the multiset of
        // words but changes the set of tuples.
        assert_ne!(digest(&[[1, 10], [2, 20]]), digest(&[[1, 20], [2, 10]]));
        // Any single-word change of one element changes the digest.
        assert_ne!(digest(&[[1, 10], [2, 20]]), digest(&[[1, 10], [2, 21]]));
        assert_ne!(digest(&[[1, 10]]), digest(&[[10, 1]]));
    }
}
