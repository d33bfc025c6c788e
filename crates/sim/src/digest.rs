//! Streaming state digests for checkpoint hashing.
//!
//! [`Fnv1a`] is standard 64-bit FNV-1a over the little-endian bytes of an
//! ordered word stream, fed word by word with no buffer. [`SetDigest`]
//! hashes an unordered set of word tuples — the live events of a queue —
//! in any visiting order: each element's words are folded by an
//! [`ElementHash`], finished with a full-avalanche mix, and summed, so the
//! digest depends on which elements are present, not on where the engine
//! happens to store them. Set digests are only compared within one process
//! and never persisted, so their definition may change between versions.

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

/// Folds one set element's words, in a fixed order, into 64 bits.
///
/// Each [`word`](Self::word) step is a bijection of the running state for
/// a fixed word, so two tuples of the same length that differ in exactly
/// one word never fold to the same value.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ElementHash(u64);

impl ElementHash {
    /// Feeds one word.
    #[inline]
    pub fn word(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Order-independent digest of a set of elements: the element count plus
/// the wrapping sum of each element's [`ElementHash`], finished with a
/// full-avalanche mix (the splitmix64 finaliser) before it is added.
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
        self.sum = self.sum.wrapping_add(mix64(element.0));
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
