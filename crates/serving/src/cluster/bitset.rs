//! The crate's one bitset: the node sets of the fleet's routing index and
//! every node's chunk residency.

/// A set of small integers as 64-bit words: `i` is bit `i % 64` of word
/// `i / 64`. Inserting grows the words up to the one holding `i`, and
/// removing drops the trailing words it leaves zero, so no word past the
/// last member is kept and the derived equality is set equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(super) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Whether `i` is a member.
    pub(super) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Adds `i`; returns whether it was not a member.
    pub(super) fn insert(&mut self, i: usize) -> bool {
        let k = i / 64;
        if self.words.len() <= k {
            self.words.resize(k + 1, 0);
        }
        let bit = 1 << (i % 64);
        let added = self.words[k] & bit == 0;
        self.words[k] |= bit;
        added
    }

    /// Removes `i`; returns whether it was a member.
    pub(super) fn remove(&mut self, i: usize) -> bool {
        let Some(w) = self.words.get_mut(i / 64) else {
            return false;
        };
        let bit = 1 << (i % 64);
        let removed = *w & bit != 0;
        *w &= !bit;
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        removed
    }

    /// Whether the set has no member.
    pub(super) fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of members.
    pub(super) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The least member.
    pub(super) fn first(&self) -> Option<usize> {
        self.next_from(0)
    }

    /// The least member at or after `i`.
    pub(super) fn next_from(&self, i: usize) -> Option<usize> {
        let k = i / 64;
        let head = self.words.get(k)? & (u64::MAX << (i % 64));
        if head != 0 {
            return Some(k * 64 + head.trailing_zeros() as usize);
        }
        let j = k + 1 + self.words[k + 1..].iter().position(|&w| w != 0)?;
        Some(j * 64 + self.words[j].trailing_zeros() as usize)
    }

    /// The members, ascending.
    pub(super) fn iter(&self) -> Iter<'_> {
        let mut words = self.words.iter();
        let word = words.next().copied().unwrap_or(0);
        Iter {
            words,
            base: 0,
            word,
        }
    }

    /// Adds every member of `other`.
    pub(super) fn union_with(&mut self, other: &BitSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// Ascending iterator over a [`BitSet`]: the lowest set bit of the current
/// word, which is then cleared. The default iterator is empty.
#[derive(Default)]
pub(super) struct Iter<'a> {
    /// The words after the current one.
    words: std::slice::Iter<'a, u64>,
    /// The member number of the current word's bit 0.
    base: usize,
    /// The current word's members not yet yielded.
    word: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.words.next()?;
            self.base += 64;
        }
        let i = self.base + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::BitSet;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random inserts and removes across several words keep the
        /// bitset equal to a `BTreeSet`: membership, length, first and
        /// next member, ascending iteration, and equality with a set
        /// built from the members alone (trailing words that emptied do
        /// not count).
        #[test]
        fn bitset_matches_btreeset(
            ops in prop::collection::vec((any::<bool>(), 0usize..300), 0..200),
            probes in prop::collection::vec(0usize..320, 1..8),
        ) {
            let mut bits = BitSet::default();
            let mut tree = BTreeSet::new();
            for (add, i) in ops {
                if add {
                    prop_assert_eq!(bits.insert(i), tree.insert(i));
                } else {
                    prop_assert_eq!(bits.remove(i), tree.remove(&i));
                }
                prop_assert_eq!(bits.len(), tree.len());
                prop_assert_eq!(bits.is_empty(), tree.is_empty());
                prop_assert_eq!(bits.first(), tree.first().copied());
            }
            prop_assert!(bits.iter().eq(tree.iter().copied()));
            for &p in &probes {
                prop_assert_eq!(bits.contains(p), tree.contains(&p));
                prop_assert_eq!(bits.next_from(p), tree.range(p..).next().copied());
            }
            let mut fresh = BitSet::default();
            for &i in &tree {
                fresh.insert(i);
            }
            prop_assert_eq!(&bits, &fresh);
            for &i in &tree {
                bits.remove(i);
            }
            prop_assert_eq!(bits, BitSet::default());
        }
    }

    #[test]
    fn union_and_word_boundaries() {
        let mut a = BitSet::default();
        for i in [0, 63, 64, 127, 128] {
            a.insert(i);
        }
        let mut b = BitSet::default();
        b.insert(200);
        b.union_with(&a);
        assert!(b.iter().eq([0, 63, 64, 127, 128, 200]));
        assert_eq!(b.next_from(129), Some(200));
        assert_eq!(b.next_from(201), None);
        assert_eq!(b.next_from(1000), None);
        b.remove(200);
        b.remove(128);
        a.remove(128);
        assert_eq!(a, b);
    }
}
